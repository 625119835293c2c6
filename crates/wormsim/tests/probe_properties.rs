//! Probe-layer soundness: the in-loop [`EventRecorder`]'s *exact*
//! accounting against the after-the-fact [`ChannelTrace`] envelope and
//! the engine's own `NetStats` aggregates.
//!
//! Four contracts, matching DESIGN.md §10:
//!
//! 1. **Envelope soundness** — every exact channel-holding interval the
//!    recorder observed is *contained* in the reconstructed envelope
//!    (same message, same channel, wider-or-equal window), and for
//!    contention-free runs with `t_hop = 0` the two coincide exactly.
//! 2. **Utilization exactness** — `NetStats` per-dimension busy time,
//!    contention blocked time, and port-wait time equal the recorder's
//!    per-channel sums, on the cube (both port models), the torus and
//!    the mesh, stall-window runs included when no abort cuts a wait.
//! 3. **Observation is passive** — an attached recorder never perturbs
//!    the schedule.
//! 4. **One episode source** — the blocking episodes the engine closes
//!    equal, in order, those the sink-side block→grant reconstruction
//!    closes, under faults, stalls, deadlines and windows.

use hcube::{
    Cube, Dim, Ecube, Mesh, MeshXY, NodeId, Resolution, Router, Topology, Torus, TorusRouter,
};
use hypercast::{Algorithm, PortModel};
use proptest::prelude::*;
use wormsim::network::ChannelMap;
use wormsim::{
    multicast_workload, BlockedInterval, ChannelTrace, DepMessage, EventRecorder, FaultCause,
    FaultPlan, Probe, ProbeEvent, Run, RunResult, SimError, SimParams, SimTime,
};

/// A fault-free run of a well-formed workload, recorded into `rec`.
fn record<R: Router>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    rec: &mut EventRecorder,
) -> RunResult {
    Run::new(router, params, workload).probe(rec).run().unwrap()
}

fn msg(src: u32, dst: u32, bytes: u32) -> DepMessage {
    DepMessage {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes,
        deps: vec![],
        min_start: SimTime::ZERO,
    }
}

fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>)> {
    (3u8..=6).prop_flat_map(|n| {
        let m = 1u32 << n;
        (
            Just(n),
            0..m,
            prop::collection::btree_set(0..m, 1..=(m as usize - 1).min(20)),
        )
            .prop_map(|(n, src, set)| {
                let dests: Vec<u32> = set.into_iter().filter(|&d| d != src).collect();
                (n, src, dests)
            })
    })
}

/// Checks that every exact external-channel occupancy the recorder saw
/// is contained in the envelope's interval for the same (message,
/// channel) pair.
fn assert_envelope_contains(
    map: &ChannelMap<impl hcube::Router>,
    trace: &ChannelTrace,
    rec: &EventRecorder,
) {
    for exact in rec.occupancies() {
        if map.is_virtual(exact.channel) {
            continue; // the envelope covers external channels only
        }
        let env = trace
            .occupancies
            .iter()
            .find(|o| o.message == exact.message && o.channel == exact.channel)
            .unwrap_or_else(|| {
                panic!(
                    "exact occupancy (msg {}, ch {}) missing from envelope",
                    exact.message, exact.channel
                )
            });
        assert!(
            env.from <= exact.from && env.until >= exact.until,
            "envelope [{}, {}] does not contain exact [{}, {}] (msg {}, ch {})",
            env.from,
            env.until,
            exact.from,
            exact.until,
            exact.message,
            exact.channel
        );
    }
}

proptest! {
    /// Envelope soundness: for any multicast (any algorithm, any port
    /// model), the reconstructed `ChannelTrace` envelope contains every
    /// exact occupancy interval recorded in-loop.
    #[test]
    fn envelope_contains_exact_occupancies(
        (n, src, dests) in instance(),
        algo_idx in 0usize..4,
        allport in any::<bool>(),
        bytes in 64u32..8192,
    ) {
        prop_assume!(!dests.is_empty());
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let params = SimParams::ncube2(port);
        let cube = Cube::of(n);
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
        let tree = Algorithm::PAPER[algo_idx]
            .build(cube, Resolution::HighToLow, port, NodeId(src), &dests)
            .unwrap();
        let workload = multicast_workload(&tree, bytes);
        let router = Ecube::new(cube, Resolution::HighToLow);
        let mut rec = EventRecorder::new();
        let run = record(router, &params, &workload, &mut rec);
        let trace = ChannelTrace::reconstruct(router, &params, &workload, &run);
        let map = ChannelMap::new(router);
        // One exact interval per held channel: route lengths add up.
        prop_assert_eq!(
            rec.occupancies().len(),
            workload
                .iter()
                .map(|m| map.route(port, m.src, m.dst).len())
                .sum::<usize>()
        );
        assert_envelope_contains(&map, &trace, &rec);
    }

    /// Envelope exactness: with `t_hop = 0` a contention-free run's
    /// envelope *equals* the exact record — every hop of a worm is
    /// acquired at injection and released at tail drain, which is
    /// precisely the `[injected, network_done]` window the
    /// reconstruction assumes.
    #[test]
    fn envelope_is_exact_for_contention_free_zero_hop_runs(
        (n, src, dests) in instance(),
        bytes in 64u32..8192,
    ) {
        prop_assume!(!dests.is_empty());
        let params = SimParams {
            t_hop: SimTime::ZERO,
            ..SimParams::ncube2(PortModel::AllPort)
        };
        let cube = Cube::of(n);
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
        // W-sort on all-port: contention-free by Theorem 6.
        let tree = Algorithm::WSort
            .build(cube, Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dests)
            .unwrap();
        let workload = multicast_workload(&tree, bytes);
        let router = Ecube::new(cube, Resolution::HighToLow);
        let mut rec = EventRecorder::new();
        let run = record(router, &params, &workload, &mut rec);
        prop_assert_eq!(run.stats.blocks, 0);
        let trace = ChannelTrace::reconstruct(router, &params, &workload, &run);
        let mut exact: Vec<(usize, usize, SimTime, SimTime)> = rec
            .occupancies()
            .iter()
            .map(|o| (o.message, o.channel, o.from, o.until))
            .collect();
        let mut envelope: Vec<(usize, usize, SimTime, SimTime)> = trace
            .occupancies
            .iter()
            .map(|o| (o.message, o.channel, o.from, o.until))
            .collect();
        exact.sort_unstable();
        envelope.sort_unstable();
        prop_assert_eq!(exact, envelope);
    }

    /// Observation is passive: attaching a recorder yields the exact
    /// same per-message results as the unobserved run.
    #[test]
    fn recorder_does_not_perturb_the_schedule((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let params = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(n);
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
        let tree = Algorithm::UCube
            .build(cube, Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dests)
            .unwrap();
        let workload = multicast_workload(&tree, 4096);
        let plain = Run::new(Ecube::new(cube, Resolution::HighToLow), &params, &workload)
            .run()
            .unwrap();
        let mut rec = EventRecorder::new();
        let observed = record(Ecube::new(cube, Resolution::HighToLow), &params, &workload, &mut rec);
        prop_assert_eq!(plain.messages, observed.messages);
        prop_assert_eq!(plain.stats, observed.stats);
        prop_assert_eq!(rec.latencies().len(), observed.delivered_count());
    }
}

// ---------------------------------------------------------------------
// NetStats utilization exactness against in-loop channel-hold events
// (the "validate and fix any drift" satellite). Three configurations.
// ---------------------------------------------------------------------

/// Asserts that `NetStats`' aggregate time accounting equals the
/// recorder's exact per-channel sums under the engine's classification
/// rule: blocking on a virtual channel or at hop 0 is port waiting,
/// everything else is genuine contention; busy time is charged to the
/// dimension of each external channel.
fn assert_stats_match_recorder(
    map: &ChannelMap<impl hcube::Router>,
    stats: &wormsim::NetStats,
    rec: &EventRecorder,
) {
    let ext = map.externals();
    let contention: u64 = (0..ext).map(|ch| rec.contention_blocked_ns(ch)).sum();
    assert_eq!(
        stats.blocked_time.as_ns(),
        contention,
        "NetStats.blocked_time drifts from exact in-loop accounting"
    );
    let port_wait: u64 = (0..ext)
        .map(|ch| rec.blocked_ns(ch) - rec.contention_blocked_ns(ch))
        .sum::<u64>()
        + (ext..map.len()).map(|ch| rec.blocked_ns(ch)).sum::<u64>();
    assert_eq!(
        stats.port_wait_time.as_ns(),
        port_wait,
        "NetStats.port_wait_time drifts from exact in-loop accounting"
    );
    let dims = map.dimensions() as usize;
    let mut busy = vec![0u64; dims];
    for ch in 0..ext {
        busy[map.dim_of(ch) as usize] += rec.busy_ns(ch);
    }
    assert_eq!(stats.dim_busy.len(), dims);
    for (d, (&expected, got)) in busy.iter().zip(&stats.dim_busy).enumerate() {
        assert_eq!(
            got.as_ns(),
            expected,
            "NetStats.dim_busy[{d}] drifts from exact per-channel holds"
        );
    }
    // The deepest FIFO queue the run saw is the max over channels.
    let depth = (0..map.len()).map(|ch| rec.max_queue_depth(ch)).max();
    assert_eq!(stats.max_queue_depth, depth.unwrap_or(0));
}

/// Hot-spot workload: every other node sends to node 0 at t = 0.
fn hot_spot(nodes: u32, bytes: u32) -> Vec<DepMessage> {
    (1..nodes).map(|v| msg(v, 0, bytes)).collect()
}

#[test]
fn netstats_matches_recorder_cube_all_port() {
    let cube = Cube::of(4);
    let params = SimParams::ncube2(PortModel::AllPort);
    let router = Ecube::new(cube, Resolution::HighToLow);
    let map = ChannelMap::new(router);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &hot_spot(16, 2048), &mut rec);
    assert!(run.stats.blocks > 0, "hot-spot must contend");
    assert_stats_match_recorder(&map, &run.stats, &rec);
}

#[test]
fn netstats_matches_recorder_cube_one_port() {
    let cube = Cube::of(4);
    let params = SimParams::ncube2(PortModel::OnePort);
    let router = Ecube::new(cube, Resolution::HighToLow);
    let map = ChannelMap::new(router);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &hot_spot(16, 2048), &mut rec);
    assert!(
        run.stats.port_waits > 0,
        "one-port hot-spot must serialize on the consumption channel"
    );
    assert_stats_match_recorder(&map, &run.stats, &rec);
}

#[test]
fn netstats_matches_recorder_torus() {
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let params = SimParams::ncube2(PortModel::AllPort);
    let map = ChannelMap::new(router);
    let workload = hot_spot(16, 2048);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &workload, &mut rec);
    assert!(run.stats.blocks > 0, "torus hot-spot must contend");
    assert_stats_match_recorder(&map, &run.stats, &rec);
    // Cross-check the separately computed utilization against a direct
    // recompute from the recorder.
    let util = run.stats.dim_utilization();
    for (d, &u) in util.iter().enumerate() {
        let chans = f64::from(run.stats.dim_channels[d]);
        let busy: u64 = (0..map.externals())
            .filter(|&ch| map.dim_of(ch) as usize == d)
            .map(|ch| rec.busy_ns(ch))
            .sum();
        let expect = busy as f64 / (run.stats.makespan.as_ns() as f64 * chans);
        assert!((u - expect).abs() < 1e-12, "dim {d}: {u} vs {expect}");
    }
}

#[test]
fn netstats_matches_recorder_under_multicast_contention() {
    // A fourth configuration: genuine multicast traffic (U-cube all-port
    // funnels same-dimension sends) rather than a synthetic hot-spot.
    let cube = Cube::of(5);
    let params = SimParams::ncube2(PortModel::AllPort);
    let dests: Vec<NodeId> = (1..32).map(NodeId).collect();
    let tree = Algorithm::UCube
        .build(
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dests,
        )
        .unwrap();
    let router = Ecube::new(cube, Resolution::HighToLow);
    let map = ChannelMap::new(router);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &multicast_workload(&tree, 4096), &mut rec);
    assert_stats_match_recorder(&map, &run.stats, &rec);
}

// ---------------------------------------------------------------------
// Multi-lane reconciliation: NetStats' per-lane busy/blocked accounting
// equals the recorder's exact per-channel sums when the router runs
// several lanes per link and the engine picks lanes adaptively.
// ---------------------------------------------------------------------

/// Per-lane exactness: `lane_busy[l]` is the sum of exact hold time over
/// the external channels of lane `l`, blocked time parks only on class
/// representatives, and the totals still reconcile.
fn assert_lane_stats_match_recorder(
    map: &ChannelMap<impl hcube::Router>,
    stats: &wormsim::NetStats,
    rec: &EventRecorder,
) {
    assert_eq!(stats.lane_busy.len(), map.lanes());
    assert_eq!(stats.lane_links as usize, map.links());
    for l in 0..map.lanes() {
        let expect: u64 = (0..map.externals())
            .filter(|&ch| map.lane_of(ch) as usize == l)
            .map(|ch| rec.busy_ns(ch))
            .sum();
        assert_eq!(
            stats.lane_busy[l].as_ns(),
            expect,
            "NetStats.lane_busy[{l}] drifts from exact per-channel holds"
        );
    }
    // Worms queue on the class representative, so non-representative
    // lanes never accrue blocked time.
    for ch in 0..map.externals() {
        if map.class_rep(ch) != ch {
            assert_eq!(
                rec.blocked_ns(ch),
                0,
                "blocked time must park on class representatives (ch {ch})"
            );
        }
    }
    // Busy time is conserved across the two decompositions.
    let by_lane: u64 = stats.lane_busy.iter().map(|t| t.as_ns()).sum();
    let by_dim: u64 = stats.dim_busy.iter().map(|t| t.as_ns()).sum();
    assert_eq!(
        by_lane, by_dim,
        "lane and dimension busy must both sum to total"
    );
}

#[test]
fn netstats_matches_recorder_multi_lane_cube() {
    let cube = Cube::of(4);
    let router = Ecube::with_lanes(cube, Resolution::HighToLow, 4);
    let map = ChannelMap::new(router);
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &hot_spot(16, 2048), &mut rec);
    assert_eq!(run.delivered_count(), 15);
    assert_stats_match_recorder(&map, &run.stats, &rec);
    assert_lane_stats_match_recorder(&map, &run.stats, &rec);
    // The hot-spot actually spreads onto the extra lanes: some hold time
    // lands outside lane 0.
    assert!(
        run.stats.lane_busy[1..].iter().any(|t| t.as_ns() > 0),
        "adaptive selection must use a lane other than 0 under a hot-spot"
    );
    let util = run.stats.lane_utilization();
    assert_eq!(util.len(), 4);
    assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    assert!(util[0] >= util[3], "lowest lane is scanned first");
}

#[test]
fn netstats_matches_recorder_multi_lane_torus() {
    let torus = Torus::of(4, 2);
    let router = TorusRouter::with_lane_multiplier(torus, 2);
    let map = ChannelMap::new(router);
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &hot_spot(16, 2048), &mut rec);
    assert_eq!(run.delivered_count(), 15);
    assert_stats_match_recorder(&map, &run.stats, &rec);
    assert_lane_stats_match_recorder(&map, &run.stats, &rec);
}

// ---------------------------------------------------------------------
// Watchdog / deadlock paths: the probe sees the same wedge the typed
// error reports.
// ---------------------------------------------------------------------

#[test]
fn deadlock_emits_matching_watchdog_alarm_and_blocked_events() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    // msg 0 holds 0→0b010 then queues forever on the stuck channel;
    // msg 1 queues behind msg 0's held channel (the engine test-suite's
    // canonical wedge).
    let workload = [msg(0, 0b011, 4096), msg(0b100, 0b010, 4096)];
    let router = Ecube::new(Cube::of(3), Resolution::HighToLow);
    let mut rec = EventRecorder::new();
    let err = Run::new(router, &params, &workload)
        .faults(&plan)
        .probe(&mut rec)
        .run()
        .expect_err("stuck channel must deadlock");
    let SimError::Deadlock {
        at,
        holders,
        waiters,
    } = err
    else {
        panic!("expected deadlock, got {err}");
    };

    // The recorder survived the Err return and holds exactly one alarm
    // naming the same holders and waiters at the same time.
    assert_eq!(rec.alarms().len(), 1, "one watchdog alarm");
    let alarm = &rec.alarms()[0];
    assert_eq!(alarm.at, at);
    assert_eq!(alarm.holders, holders);
    assert_eq!(alarm.waiters, waiters);

    // Every waiter blocked on a channel and was never granted it: the
    // ring holds its ChannelBlocked event and no later grant for the
    // same channel.
    for &w in &waiters {
        let blocked_ch = rec.events().find_map(|&(_, e)| match e {
            ProbeEvent::ChannelBlocked { msg, ch, .. } if msg == w => Some(ch),
            _ => None,
        });
        let ch = blocked_ch.unwrap_or_else(|| panic!("waiter {w} has no blocked event"));
        let granted_after = rec.events().any(|&(_, e)| {
            matches!(e, ProbeEvent::ChannelGranted { msg, ch: g, .. } if msg == w && g == ch)
        });
        assert!(!granted_after, "waiter {w} must never be granted ch {ch}");
    }
    // The alarm also appears in the ring with the right set sizes.
    assert!(rec.events().any(|&(t, e)| matches!(
        e,
        ProbeEvent::WatchdogAlarm { holders: h, waiters: w }
            if h == holders.len() && w == waiters.len() && t == at
    )));
}

#[test]
fn deadline_rescue_emits_timeout_events_not_alarms() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    plan.deadline_all(SimTime::from_ms(10));
    let workload = [msg(0, 0b011, 4096), msg(0b100, 0b010, 4096)];
    let router = Ecube::new(Cube::of(3), Resolution::HighToLow);
    let mut rec = EventRecorder::new();
    let run = Run::new(router, &params, &workload)
        .faults(&plan)
        .probe(&mut rec)
        .run()
        .expect("deadline converts the wedge into timeouts");
    assert_eq!(run.stats.timed_out, 2);
    assert!(rec.alarms().is_empty(), "no deadlock alarm when rescued");
    let timeouts = rec
        .events()
        .filter(|&&(_, e)| matches!(e, ProbeEvent::TimedOut { .. }))
        .count();
    assert_eq!(timeouts, 2);
    // The wedged wait shows up as closed blocked intervals ending at the
    // abort time.
    assert!(rec
        .blocked_intervals()
        .iter()
        .any(|b| b.until == SimTime::from_ms(10)));
}

#[test]
fn one_port_blocking_is_port_wait_not_contention() {
    // Two same-source sends on a one-port node serialize on the virtual
    // injection channel: the recorder must classify all of that blocked
    // time as hop-0/virtual (port wait), mirroring NetStats.
    let cube = Cube::of(3);
    let params = SimParams::ncube2(PortModel::OnePort);
    let router = Ecube::new(cube, Resolution::HighToLow);
    let map = ChannelMap::new(router);
    let workload = [msg(0, 0b001, 4096), msg(0, 0b010, 4096)];
    let mut rec = EventRecorder::new();
    let run = record(router, &params, &workload, &mut rec);
    assert!(run.stats.port_waits > 0);
    assert_eq!(run.stats.blocks, 0);
    let contention: u64 = (0..map.externals())
        .map(|ch| rec.contention_blocked_ns(ch))
        .sum();
    assert_eq!(contention, 0);
    let inj = map.injection(NodeId(0));
    assert!(rec.blocked_ns(inj) > 0, "injection channel serialized");
}

// ---------------------------------------------------------------------
// One episode source: the engine's closed waits against the sink-side
// reconstruction every sink carried before the engine closed them.
// ---------------------------------------------------------------------

/// The block→grant reconstruction the sinks kept before the engine
/// closed episodes itself, verbatim: a per-message open wait, opened at
/// a block (a same-channel re-block keeps the original start — stall
/// continuity) and closed at a grant and, when `close_on_abort`, at a
/// fault or timeout.
#[derive(Default)]
struct ReferenceWaits {
    close_on_abort: bool,
    /// Per-message open wait: `(channel, hop, since)`.
    waiting: Vec<Option<(usize, usize, SimTime)>>,
    closed: Vec<BlockedInterval>,
}

impl ReferenceWaits {
    fn block(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize) {
        if msg >= self.waiting.len() {
            self.waiting.resize(msg + 1, None);
        }
        match self.waiting[msg] {
            Some((wch, _, _)) if wch == ch => {}
            _ => self.waiting[msg] = Some((ch, hop, t)),
        }
    }

    fn close(&mut self, msg: usize, t: SimTime) {
        if let Some(slot) = self.waiting.get_mut(msg) {
            if let Some((channel, hop, from)) = slot.take() {
                self.closed.push(BlockedInterval {
                    message: msg,
                    channel,
                    hop,
                    from,
                    until: t,
                });
            }
        }
    }

    fn abort(&mut self, msg: usize, t: SimTime) {
        if self.close_on_abort {
            self.close(msg, t);
        }
    }
}

/// Runs both reference rules — the recorder's (grant, fault, timeout)
/// and the telemetry probe's (grant only) — next to the engine's own
/// `on_wait_closed` stream.
struct EpisodeOracle {
    recorder: ReferenceWaits,
    telemetry: ReferenceWaits,
    engine: Vec<(BlockedInterval, bool)>,
}

impl EpisodeOracle {
    fn new() -> EpisodeOracle {
        EpisodeOracle {
            recorder: ReferenceWaits {
                close_on_abort: true,
                ..ReferenceWaits::default()
            },
            telemetry: ReferenceWaits::default(),
            engine: Vec::new(),
        }
    }
}

impl Probe for EpisodeOracle {
    fn on_channel_blocked(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize, _: usize) {
        self.recorder.block(t, msg, ch, hop);
        self.telemetry.block(t, msg, ch, hop);
    }

    fn on_channel_granted(&mut self, t: SimTime, msg: usize, _ch: usize, _hop: usize) {
        self.recorder.close(msg, t);
        self.telemetry.close(msg, t);
    }

    fn on_fault(&mut self, t: SimTime, msg: usize, _cause: FaultCause) {
        self.recorder.abort(msg, t);
        self.telemetry.abort(msg, t);
    }

    fn on_timeout(&mut self, t: SimTime, msg: usize) {
        self.recorder.abort(msg, t);
        self.telemetry.abort(msg, t);
    }

    fn on_wait_closed(&mut self, iv: BlockedInterval, granted: bool) {
        self.engine.push((iv, granted));
    }
}

/// The fault scenarios of the episode property.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    NoFaults,
    Stalls,
    StuckWithDeadline,
    DeadLinks,
    Window,
}

const SCENARIOS: [Scenario; 5] = [
    Scenario::NoFaults,
    Scenario::Stalls,
    Scenario::StuckWithDeadline,
    Scenario::DeadLinks,
    Scenario::Window,
];

/// Random point-to-point traffic, dense enough to contend.
fn traffic(nodes: u32) -> impl Strategy<Value = Vec<DepMessage>> {
    prop::collection::vec((0..nodes, 1..nodes, 256u32..4096, 0u64..400), 4..24).prop_map(
        move |msgs| {
            msgs.into_iter()
                .map(|(src, off, bytes, start_us)| DepMessage {
                    src: NodeId(src),
                    dst: NodeId((src + off) % nodes),
                    bytes,
                    deps: vec![],
                    min_start: SimTime::from_us(start_us),
                })
                .collect()
        },
    )
}

/// The scenario's fault plan and observation window, with fault
/// elements drawn from `picks` (node, port, time in µs).
fn scenario_plan<R: Router>(
    router: R,
    scenario: Scenario,
    picks: &[(u32, u8, u64)],
) -> (FaultPlan, Option<SimTime>) {
    let topo = router.topology();
    let nodes = topo.node_count() as u32;
    let ports = topo.ports_per_node();
    let mut plan = FaultPlan::none();
    let at = |&(v, p, _): &(u32, u8, u64)| (NodeId(v % nodes), Dim(p % ports));
    match scenario {
        Scenario::NoFaults => {}
        Scenario::Stalls => {
            for pick in picks {
                let (v, p) = at(pick);
                let from = SimTime::from_us(pick.2);
                plan.stall(v, p, from, from + SimTime::from_us(150 + pick.2 / 2));
            }
        }
        Scenario::StuckWithDeadline => {
            let (v, p) = at(&picks[0]);
            plan.stick(v, p);
            plan.deadline_all(SimTime::from_us(1_000 + picks[0].2 * 10));
        }
        Scenario::DeadLinks => {
            for pick in &picks[..2] {
                let (v, p) = at(pick);
                plan.fail_link(v, p);
            }
        }
        Scenario::Window => return (plan, Some(SimTime::from_us(300 + picks[0].2))),
    }
    (plan, None)
}

/// Runs `workload` under the scenario with the episode oracle attached
/// and checks the engine's episodes against both reference rules. A
/// run no abort touched (a fault-free or stall-only plan) must also
/// reconcile `NetStats` with a recorder exactly.
fn check_episodes<R: Router + Copy>(
    router: R,
    port: PortModel,
    workload: &[DepMessage],
    scenario: Scenario,
    picks: &[(u32, u8, u64)],
) -> Result<(), TestCaseError> {
    let params = SimParams::ncube2(port);
    let (plan, window) = scenario_plan(router, scenario, picks);
    let run = || {
        let run = Run::new(router, &params, workload).faults(&plan);
        match window {
            Some(h) => run.window(h),
            None => run,
        }
    };
    let mut oracle = EpisodeOracle::new();
    let result = run().probe(&mut oracle).run();
    let all: Vec<BlockedInterval> = oracle.engine.iter().map(|&(iv, _)| iv).collect();
    let granted: Vec<BlockedInterval> = oracle
        .engine
        .iter()
        .filter(|&&(_, granted)| granted)
        .map(|&(iv, _)| iv)
        .collect();
    prop_assert_eq!(&all, &oracle.recorder.closed);
    prop_assert_eq!(&granted, &oracle.telemetry.closed);

    let Ok(result) = result else {
        return Ok(());
    };
    if result.stats.failed == 0 && result.stats.timed_out == 0 {
        let map = ChannelMap::new(router);
        let mut rec = EventRecorder::new();
        let observed = run().probe(&mut rec).run().unwrap();
        assert_stats_match_recorder(&map, &observed.stats, &rec);
        assert_lane_stats_match_recorder(&map, &observed.stats, &rec);
    }
    Ok(())
}

fn picks() -> impl Strategy<Value = Vec<(u32, u8, u64)>> {
    prop::collection::vec((0u32..1024, 0u8..16, 0u64..600), 2..6)
}

proptest! {
    /// The engine closes each blocking episode once, in the order the
    /// sink-side reconstruction closed it: every episode (granted or
    /// cut short by an abort) equals the recorder's rule, the granted
    /// ones equal the telemetry probe's rule — on the cube, the torus
    /// and the mesh, with 1–3 lanes, under every fault scenario.
    #[test]
    fn engine_episodes_match_the_reference_reconstruction(
        allport in any::<bool>(),
        picks in picks(),
        workload in traffic(16),
    ) {
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        for lanes in 1u8..=3 {
            for scenario in SCENARIOS {
                let cube = Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, lanes);
                check_episodes(cube, port, &workload, scenario, &picks)?;
                let torus = TorusRouter::with_lane_multiplier(Torus::of(4, 2), lanes);
                check_episodes(torus, port, &workload, scenario, &picks)?;
                let mesh = MeshXY::with_lanes(Mesh::of(4, 4), lanes);
                check_episodes(mesh, port, &workload, scenario, &picks)?;
            }
        }
    }
}
