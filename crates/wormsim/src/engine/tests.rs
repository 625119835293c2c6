//! Engine behavior tests: latency model, contention classification,
//! determinism, fault injection, watchdog verdicts, and the
//! topology-generic entry points.

use super::*;
use crate::time::SimTime;
use hcube::{Cube, Dim, Ecube, Mesh, MeshXY, NodeId, Resolution, Topology, Torus, TorusRouter};
use hypercast::PortModel;

/// A fault-free, unobserved run of a well-formed workload.
fn ecube(cube: Cube) -> Ecube {
    Ecube::new(cube, Resolution::HighToLow)
}

fn replay<R: Router>(router: R, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    Run::new(router, params, workload).run().unwrap()
}

fn msg(src: u32, dst: u32, bytes: u32, deps: Vec<usize>) -> DepMessage {
    DepMessage {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes,
        deps,
        min_start: SimTime::ZERO,
    }
}

fn run(n: u8, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    Run::new(ecube(Cube::of(n)), params, workload)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn single_unicast_matches_latency_formula() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let r = run(4, &p, &[msg(0b0101, 0b1110, 4096, vec![])]);
    assert_eq!(r.messages[0].delivered, p.unicast_latency(3, 4096));
    assert_eq!(r.messages[0].blocks, 0);
    assert_eq!(r.messages[0].outcome, Outcome::Delivered);
    assert_eq!(r.delivery_ratio(), 1.0);
}

#[test]
fn latency_is_nearly_distance_insensitive() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let near = run(6, &p, &[msg(0, 1, 4096, vec![])]).messages[0].delivered;
    let far = run(6, &p, &[msg(0, 0b111111, 4096, vec![])]).messages[0].delivered;
    assert_eq!(far - near, p.t_hop * 5);
    // The 5-hop difference is under 1% of the total latency.
    assert!((far - near).as_ns() * 100 < near.as_ns());
}

#[test]
fn same_source_shared_channel_is_a_port_wait() {
    // Both messages need channel 0→0b100 as their *first* hop: this
    // is Theorem 3's benign case — source-side serialization.
    let p = SimParams::ncube2(PortModel::AllPort);
    let r = run(
        3,
        &p,
        &[msg(0, 0b100, 4096, vec![]), msg(0, 0b101, 4096, vec![])],
    );
    let a = r.messages[0];
    let b = r.messages[1];
    // Second message still trails the first by the drain time…
    assert!(b.delivered >= a.delivered + p.t_byte * 4096 - p.t_recv_sw);
    // …but is classified as a port wait, not network contention.
    assert_eq!(b.blocks, 0);
    assert_eq!(b.port_waits, 1);
    assert_eq!(r.stats.blocks, 0);
    assert!(r.stats.port_wait_time > SimTime::ZERO);
}

#[test]
fn mid_path_shared_channel_is_real_contention() {
    // msg0: 0b000→0b011 (hops 0→0b010, 0b010→0b011).
    // msg1: 0b110→0b011 (hops 0b110→0b010, 0b010→0b011): collides on
    // the *second* hop's channel 0b010→0b011 while holding its first.
    let p = SimParams::ncube2(PortModel::AllPort);
    let r = run(
        3,
        &p,
        &[
            msg(0b000, 0b011, 4096, vec![]),
            msg(0b110, 0b011, 4096, vec![]),
        ],
    );
    let loser = &r.messages[1];
    assert_eq!(loser.blocks, 1);
    assert!(r.stats.blocked_time > SimTime::ZERO);
    assert!(loser.delivered >= r.messages[0].delivered + p.t_byte * 4096 - p.t_recv_sw);
}

#[test]
fn disjoint_messages_run_in_parallel() {
    let p = SimParams::ncube2(PortModel::AllPort);
    // From different sources to different subcubes: fully parallel.
    let r = run(
        3,
        &p,
        &[msg(0, 0b100, 4096, vec![]), msg(0b001, 0b011, 4096, vec![])],
    );
    assert_eq!(r.messages[0].delivered, p.unicast_latency(1, 4096));
    assert_eq!(r.messages[1].delivered, p.unicast_latency(1, 4096));
    assert_eq!(r.stats.blocks, 0);
}

#[test]
fn cpu_startup_serializes_two_sends_from_one_node() {
    let p = SimParams::ncube2(PortModel::AllPort);
    // Distinct channels, so only CPU startup separates them.
    let r = run(
        3,
        &p,
        &[msg(0, 0b100, 4096, vec![]), msg(0, 0b010, 4096, vec![])],
    );
    assert_eq!(r.messages[1].injected - r.messages[0].injected, p.t_send_sw);
    assert_eq!(r.stats.blocks, 0);
}

#[test]
fn one_port_serializes_whole_transmissions() {
    let mut p = SimParams::ncube2(PortModel::OnePort);
    p.cpu_serialized_startup = false; // isolate the port effect
    let r = run(
        3,
        &p,
        &[msg(0, 0b100, 4096, vec![]), msg(0, 0b010, 4096, vec![])],
    );
    // The second transmission waits for the injection channel until
    // the first drains completely.
    let drain = p.t_byte * 4096;
    assert!(r.messages[1].delivered >= r.messages[0].delivered + drain - p.t_recv_sw);
    assert_eq!(r.messages[1].port_waits, 1, "injection-channel wait");
    assert_eq!(r.messages[1].blocks, 0, "not external contention");
}

#[test]
fn one_port_serializes_reception() {
    let mut p = SimParams::ncube2(PortModel::OnePort);
    p.cpu_serialized_startup = false;
    // Two senders target the same destination from different sides.
    let r = run(
        3,
        &p,
        &[
            msg(0b001, 0b011, 4096, vec![]),
            msg(0b111, 0b011, 4096, vec![]),
        ],
    );
    let early = r.messages.iter().map(|m| m.delivered).min().unwrap();
    let late = r.messages.iter().map(|m| m.delivered).max().unwrap();
    assert!(late >= early + p.t_byte * 4096);
}

#[test]
fn dependencies_gate_injection() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let r = run(
        3,
        &p,
        &[
            msg(0, 0b100, 4096, vec![]),
            msg(0b100, 0b110, 4096, vec![0]),
        ],
    );
    // The forward cannot start before delivery of the inbound.
    assert!(r.messages[1].injected >= r.messages[0].delivered + p.t_send_sw);
    assert_eq!(
        r.messages[1].delivered,
        r.messages[0].delivered + p.unicast_latency(1, 4096)
    );
}

#[test]
fn min_start_delays_sources() {
    let p = SimParams::ideal(PortModel::AllPort);
    let mut m = msg(0, 1, 10, vec![]);
    m.min_start = SimTime::from_us(5);
    let r = run(3, &p, &[m]);
    assert_eq!(r.messages[0].injected, SimTime::from_us(5));
}

#[test]
fn deterministic_across_runs() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = (1..8u32).map(|d| msg(0, d, 4096, vec![])).collect();
    let a = run(3, &p, &workload);
    let b = run(3, &p, &workload);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.stats, b.stats);
}

#[test]
#[should_panic(expected = "self-send")]
fn rejects_self_send() {
    let p = SimParams::ideal(PortModel::AllPort);
    let _ = run(3, &p, &[msg(1, 1, 10, vec![])]);
}

#[test]
fn typed_errors_for_malformed_workloads() {
    let p = SimParams::ideal(PortModel::AllPort);
    let cube = Cube::of(3);
    let r = Run::new(ecube(cube), &p, &[msg(1, 1, 10, vec![])]).run();
    assert_eq!(r.unwrap_err(), SimError::SelfSend { index: 0 });
    let r = Run::new(ecube(cube), &p, &[msg(0, 1, 10, vec![9])]).run();
    assert_eq!(
        r.unwrap_err(),
        SimError::DependencyOutOfRange { index: 0, dep: 9 }
    );
    // Two messages depending on each other: a cycle.
    let r = Run::new(
        ecube(cube),
        &p,
        &[msg(0, 1, 10, vec![1]), msg(2, 3, 10, vec![0])],
    )
    .run();
    match r.unwrap_err() {
        SimError::DependencyCycle { stuck } => assert_eq!(stuck, vec![0, 1]),
        e => panic!("expected cycle, got {e}"),
    }
}

// ----- new statistics ---------------------------------------------------

/// Runs one 4 KB `src → dst` unicast on `router` and checks the
/// per-dimension statistics: `dim_channels` as given, busy time on every
/// dimension but `untouched`.
fn check_dim_stats<R: Router>(
    router: R,
    src: u32,
    dst: u32,
    dim_channels: &[u32],
    untouched: usize,
) {
    let p = SimParams::ncube2(PortModel::AllPort);
    let r = replay(router, &p, &[msg(src, dst, 4096, vec![])]);
    assert_eq!(r.stats.dim_channels, dim_channels);
    assert_eq!(r.stats.dim_busy.len(), dim_channels.len());
    for d in (0..dim_channels.len()).filter(|&d| d != untouched) {
        assert!(r.stats.dim_busy[d] > SimTime::ZERO, "dim {d} was traversed");
    }
    assert_eq!(
        r.stats.dim_busy[untouched],
        SimTime::ZERO,
        "dim {untouched} untouched"
    );
    let u = r.stats.dim_utilization();
    assert_eq!(u.len(), dim_channels.len());
    assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
    assert_eq!(u[untouched], 0.0);
}

#[test]
fn dim_utilization_tracks_only_traversed_dimensions() {
    let mesh = Mesh::of(4, 3);
    for lanes in [1u8, 2] {
        let l = u32::from(lanes);
        // 0b0101 → 0b1110 crosses dimensions 3, 1, 0 — never dimension 2.
        let cube = Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, lanes);
        check_dim_stats(cube, 0b0101, 0b1110, &[16 * l; 4], 2);
        // Along the bottom row, never along y. 12 nodes × 2 ports per
        // dimension (boundary self-loops are channels too) × lanes.
        let (src, dst) = (mesh.node_at(0, 0).0, mesh.node_at(3, 0).0);
        check_dim_stats(MeshXY::with_lanes(mesh, lanes), src, dst, &[24 * l; 2], 1);
    }
}

#[test]
fn max_queue_depth_counts_simultaneous_waiters() {
    let p = SimParams::ncube2(PortModel::AllPort);
    // Three same-source messages all need channel 0→0b100 first: two of
    // them sit in its FIFO at once.
    let r = run(
        3,
        &p,
        &[
            msg(0, 0b100, 4096, vec![]),
            msg(0, 0b101, 4096, vec![]),
            msg(0, 0b110, 4096, vec![]),
        ],
    );
    assert_eq!(r.stats.max_queue_depth, 2);
    // A lone unicast queues on nothing.
    let solo = run(3, &p, &[msg(0, 0b100, 4096, vec![])]);
    assert_eq!(solo.stats.max_queue_depth, 0);
}

// ----- topology-generic entry points ------------------------------------

#[test]
fn generic_cube_run_equals_classic_entry_point() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = (1..8u32).map(|d| msg(0, d, 4096, vec![])).collect();
    let classic = run(3, &p, &workload);
    let generic = replay(
        Ecube::new(Cube::of(3), Resolution::HighToLow),
        &p,
        &workload,
    );
    assert_eq!(classic.messages, generic.messages);
    assert_eq!(classic.stats, generic.stats);
}

#[test]
fn torus_unicast_delivers_with_minimal_hops_latency() {
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let p = SimParams::ncube2(PortModel::AllPort);
    let src = torus.node_at(&[0, 0]);
    let dst = torus.node_at(&[3, 2]); // 1 wrap hop + 2 hops = distance 3
    let r = replay(
        router,
        &p,
        &[DepMessage {
            src,
            dst,
            bytes: 4096,
            deps: vec![],
            min_start: SimTime::ZERO,
        }],
    );
    assert_eq!(r.messages[0].outcome, Outcome::Delivered);
    assert_eq!(
        r.messages[0].delivered,
        p.unicast_latency(torus.distance(src, dst), 4096)
    );
    assert_eq!(r.stats.dim_busy.len(), 2);
    // 16 nodes × 4 ports per dimension (2 directions × 2 dateline VCs).
    assert_eq!(r.stats.dim_channels, vec![64, 64]);
}

#[test]
fn torus_wrap_heavy_traffic_never_wedges() {
    // Every node sends across the dateline of dimension 0 — the exact
    // pattern that deadlocks plain dimension-ordered torus routing.
    // With dateline VCs the run must complete (no watchdog error).
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let p = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = torus
        .nodes()
        .map(|v| {
            let c0 = torus.coord(v, 0);
            let c1 = torus.coord(v, 1);
            DepMessage {
                src: v,
                dst: torus.node_at(&[(c0 + 2) % 4, (c1 + 1) % 4]),
                bytes: 2048,
                deps: vec![],
                min_start: SimTime::ZERO,
            }
        })
        .collect();
    let r = Run::new(router, &p, &workload)
        .run()
        .expect("dateline VCs prevent deadlock");
    assert_eq!(r.delivered_count(), workload.len());
}

#[test]
fn torus_runs_are_deterministic() {
    let torus = Torus::of(3, 3);
    let router = TorusRouter::new(torus);
    let p = SimParams::ncube2(PortModel::OnePort);
    let workload: Vec<DepMessage> = torus
        .nodes()
        .filter(|v| v.0 != 0)
        .map(|v| DepMessage {
            src: v,
            dst: NodeId(0),
            bytes: 512,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let a = replay(router, &p, &workload);
    let b = replay(router, &p, &workload);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.stats, b.stats);
}

// ----- fault injection ----------------------------------------------

fn with_faults(
    n: u8,
    params: &SimParams,
    workload: &[DepMessage],
    plan: &FaultPlan,
) -> Result<RunResult, SimError> {
    Run::new(ecube(Cube::of(n)), params, workload)
        .faults(plan)
        .run()
}

#[test]
fn empty_plan_is_identical_to_fault_free_run() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = (1..8u32).map(|d| msg(0, d, 4096, vec![])).collect();
    let a = run(3, &p, &workload);
    let b = with_faults(3, &p, &workload, &FaultPlan::none()).unwrap();
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn dead_channel_fails_the_worm_and_releases_holds() {
    let p = SimParams::ncube2(PortModel::AllPort);
    // 0 → 0b011 routes 0 → 0b010 → 0b011 (high-to-low). Kill the
    // second hop: the worm aborts after holding the first channel,
    // which a subsequent message must then be able to acquire.
    let mut plan = FaultPlan::none();
    plan.fail_link(NodeId(0b010), Dim(0));
    let r = with_faults(
        3,
        &p,
        &[msg(0, 0b011, 4096, vec![]), msg(0, 0b010, 4096, vec![])],
        &plan,
    )
    .unwrap();
    assert_eq!(
        r.messages[0].outcome,
        Outcome::Failed(FaultCause::DeadChannel)
    );
    assert_eq!(r.messages[1].outcome, Outcome::Delivered);
    assert_eq!(r.stats.failed, 1);
    assert!(r.delivery_ratio() < 1.0);
}

#[test]
fn dead_endpoint_fails_immediately_and_cascades() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.fail_node(NodeId(0b100));
    let r = with_faults(
        3,
        &p,
        &[
            msg(0, 0b100, 4096, vec![]),      // dest dead
            msg(0b100, 0b110, 4096, vec![0]), // source dead AND dep failed
            msg(0b110, 0b111, 4096, vec![1]), // transitively lost
            msg(0, 0b001, 4096, vec![]),      // unaffected
        ],
        &plan,
    )
    .unwrap();
    assert_eq!(
        r.messages[0].outcome,
        Outcome::Failed(FaultCause::DeadEndpoint)
    );
    assert!(matches!(r.messages[1].outcome, Outcome::Failed(_)));
    assert_eq!(
        r.messages[2].outcome,
        Outcome::Failed(FaultCause::DependencyFailed)
    );
    assert_eq!(r.messages[3].outcome, Outcome::Delivered);
    assert_eq!(r.delivered_count(), 1);
}

#[test]
fn routing_through_a_dead_node_fails_the_worm() {
    let p = SimParams::ncube2(PortModel::AllPort);
    // 0 → 0b011 passes through 0b010; killing that node (not an
    // endpoint) kills the route's channels.
    let mut plan = FaultPlan::none();
    plan.fail_node(NodeId(0b010));
    let r = with_faults(3, &p, &[msg(0, 0b011, 4096, vec![])], &plan).unwrap();
    assert_eq!(
        r.messages[0].outcome,
        Outcome::Failed(FaultCause::DeadChannel)
    );
}

#[test]
fn torus_dead_node_aborts_routes_through_it() {
    // The same fault semantics on the torus backend, with the dead
    // transit node found through the trait's neighbor function.
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let p = SimParams::ncube2(PortModel::AllPort);
    // [0,0] → [2,0] routes through [1,0] (dimension-ordered, + way).
    let mut plan = FaultPlan::none();
    plan.fail_node(torus.node_at(&[1, 0]));
    let r = Run::new(
        router,
        &p,
        &[DepMessage {
            src: torus.node_at(&[0, 0]),
            dst: torus.node_at(&[2, 0]),
            bytes: 1024,
            deps: vec![],
            min_start: SimTime::ZERO,
        }],
    )
    .faults(&plan)
    .run()
    .unwrap();
    assert_eq!(
        r.messages[0].outcome,
        Outcome::Failed(FaultCause::DeadChannel)
    );
}

#[test]
fn transient_stall_delays_but_delivers() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let clean = run(3, &p, &[msg(0, 0b100, 4096, vec![])]);
    let mut plan = FaultPlan::none();
    // Stall the only hop across its acquisition time.
    plan.stall(NodeId(0), Dim(2), SimTime::ZERO, SimTime::from_us(500));
    let r = with_faults(3, &p, &[msg(0, 0b100, 4096, vec![])], &plan).unwrap();
    assert_eq!(r.messages[0].outcome, Outcome::Delivered);
    assert!(r.messages[0].delivered > clean.messages[0].delivered);
    assert!(r.messages[0].blocked_time >= SimTime::from_us(400));
}

#[test]
fn stuck_channel_is_a_detected_deadlock() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    // msg 0 holds 0→0b010 then queues forever on the stuck channel;
    // msg 1 queues behind msg 0's held channel.
    let err = with_faults(
        3,
        &p,
        &[msg(0, 0b011, 4096, vec![]), msg(0b100, 0b010, 4096, vec![])],
        &plan,
    )
    .unwrap_err();
    match err {
        SimError::Deadlock {
            holders, waiters, ..
        } => {
            assert_eq!(waiters, vec![0, 1]);
            assert_eq!(holders, vec![0], "msg 0 holds what msg 1 waits on");
        }
        e => panic!("expected deadlock, got {e}"),
    }
}

#[test]
fn deadlock_detection_is_deterministic() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    let workload = [msg(0, 0b011, 4096, vec![]), msg(0b100, 0b010, 4096, vec![])];
    let a = with_faults(3, &p, &workload, &plan).unwrap_err();
    let b = with_faults(3, &p, &workload, &plan).unwrap_err();
    assert_eq!(a, b);
}

#[test]
fn deadline_rescues_a_wedged_worm_as_timeout() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    plan.deadline_all(SimTime::from_ms(10));
    // Same wedge as above, but the deadline converts the deadlock
    // into TimedOut outcomes and the run completes.
    let r = with_faults(
        3,
        &p,
        &[msg(0, 0b011, 4096, vec![]), msg(0b100, 0b010, 4096, vec![])],
        &plan,
    )
    .unwrap();
    assert_eq!(r.messages[0].outcome, Outcome::TimedOut);
    assert_eq!(r.messages[0].delivered, SimTime::from_ms(10));
    assert_eq!(r.stats.timed_out, 2);
}

#[test]
fn timeout_releases_channels_for_later_traffic() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    // Only msg 0 gets a deadline; msg 1 wants the channel 0→0b010
    // that msg 0 holds while wedged, and starts after the timeout.
    plan.deadline_for(0, SimTime::from_ms(5));
    let mut late = msg(0, 0b010, 4096, vec![]);
    late.min_start = SimTime::from_ms(1);
    let r = with_faults(3, &p, &[msg(0, 0b011, 4096, vec![]), late], &plan).unwrap();
    assert_eq!(r.messages[0].outcome, Outcome::TimedOut);
    assert_eq!(r.messages[1].outcome, Outcome::Delivered);
    // Delivery happened only after the timeout released the channel.
    assert!(r.messages[1].delivered > SimTime::from_ms(5));
}

#[test]
fn per_message_deadline_overrides_global() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.deadline_all(SimTime::from_ns(1)); // brutally tight
    plan.deadline_for(0, SimTime::from_ms(100)); // rescue msg 0
    let r = with_faults(
        3,
        &p,
        &[msg(0, 0b100, 4096, vec![]), msg(0b001, 0b011, 4096, vec![])],
        &plan,
    )
    .unwrap();
    assert_eq!(r.messages[0].outcome, Outcome::Delivered);
    assert_eq!(r.messages[1].outcome, Outcome::TimedOut);
}

#[test]
fn window_below_saturation_is_bit_identical_to_unbounded() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let workload = [
        msg(0, 0b011, 4096, vec![]),
        msg(0b100, 0b110, 4096, vec![0]),
    ];
    let unbounded = run(3, &p, &workload);
    let windowed = Run::new(ecube(Cube::of(3)), &p, &workload)
        .window(SimTime::from_ms(1_000))
        .run()
        .unwrap();
    assert_eq!(
        format!("{:?}", windowed.messages),
        format!("{:?}", unbounded.messages)
    );
    assert_eq!(
        format!("{:?}", windowed.stats),
        format!("{:?}", unbounded.stats)
    );
}

#[test]
fn window_times_out_arrivals_beyond_the_horizon() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let mut late = msg(0, 0b001, 64, vec![]);
    late.min_start = SimTime::from_ms(2);
    let r = Run::new(ecube(Cube::of(3)), &p, &[msg(0, 0b010, 64, vec![]), late])
        .window(SimTime::from_ms(1))
        .run()
        .unwrap();
    assert_eq!(r.messages[0].outcome, Outcome::Delivered);
    assert_eq!(r.messages[1].outcome, Outcome::TimedOut);
    assert_eq!(r.messages[1].delivered, SimTime::from_ms(1));
    assert_eq!(r.stats.timed_out, 1);
}

#[test]
fn window_works_on_the_torus() {
    let p = SimParams::ncube2(PortModel::AllPort);
    let torus = Torus::of(4, 2);
    let workload = [DepMessage {
        src: torus.node_at(&[0, 0]),
        dst: torus.node_at(&[2, 3]),
        bytes: 1024,
        deps: vec![],
        min_start: SimTime::ZERO,
    }];
    let r = Run::new(TorusRouter::new(torus), &p, &workload)
        .window(SimTime::from_ms(50))
        .run()
        .unwrap();
    assert!(r.messages[0].outcome.is_delivered());
}

#[test]
fn pre_scheduled_roots_stay_out_of_the_event_heap() {
    // 256 roots at distinct start times, a few in flight at once: the
    // calendar holds the arrivals, so the heap only ever holds the
    // in-flight worms' events.
    let p = SimParams::ncube2(PortModel::AllPort);
    let roots = 256u32;
    let workload: Vec<DepMessage> = (0..roots)
        .map(|i| {
            let src = i % 64;
            let mut m = msg(src, src ^ (1 + i % 63), 256, vec![]);
            m.min_start = SimTime::from_us(u64::from(i) * 50);
            m
        })
        .collect();
    let mut scratch = EngineScratch::new();
    let r = Run::new(ecube(Cube::of(6)), &p, &workload)
        .window(SimTime::from_ms(20))
        .scratch(&mut scratch)
        .run()
        .unwrap();
    assert_eq!(r.delivery_ratio(), 1.0);
    let capacity = scratch.queue.heap_capacity();
    assert!(
        capacity * 8 <= roots as usize,
        "heap capacity {capacity} for {roots} roots"
    );
}

// ----- fault wiring ---------------------------------------------------

/// The engine's `(dead, stuck)` channel marks after wiring `plan`.
fn wired<R: Router + Copy>(router: R, plan: &FaultPlan) -> (Vec<bool>, Vec<bool>) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut scratch = EngineScratch::new();
    let mut probe = NoopProbe;
    core::Engine::new(router, &params, &[], plan, &mut probe, &mut scratch)
        .unwrap_or_else(|e| panic!("{e}"));
    let len = crate::network::ChannelMap::new(router).len();
    let stuck = scratch
        .channels
        .iter()
        .take(len)
        .map(|c| c.holder == Some(arbitration::PHANTOM))
        .collect();
    (scratch.dead[..len].to_vec(), stuck)
}

/// The per-channel definition of the same marks: a channel is dead when
/// `link_dead || lane_dead || node_dead(v) || node_dead(neighbor)`, a
/// dead node's virtual channels are dead, and a stuck link wedges every
/// lane.
fn per_channel<R: Router + Copy>(router: R, plan: &FaultPlan) -> (Vec<bool>, Vec<bool>) {
    let map = crate::network::ChannelMap::new(router);
    let topo = map.topology();
    let mut dead = vec![false; map.len()];
    let mut stuck = vec![false; map.len()];
    for ch in 0..map.externals() {
        let (v, p) = map.external_coords(ch);
        dead[ch] = plan.link_dead(v, p)
            || plan.lane_dead(v, p, map.lane_of(ch))
            || plan.node_dead(v)
            || plan.node_dead(topo.neighbor(v, p));
        stuck[ch] = plan.channel_stuck(v, p);
    }
    for i in 0..map.nodes() {
        let v = NodeId(i as u32);
        if plan.node_dead(v) {
            dead[map.injection(v)] = true;
            dead[map.consumption(v)] = true;
        }
    }
    (dead, stuck)
}

/// A random plan over `nodes` nodes, `ports` ports and `lanes` lanes,
/// with some entries past each bound (they name no channel).
fn random_plan(seed: u64, nodes: u32, ports: u8, lanes: u8) -> FaultPlan {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::none();
    let node = |rng: &mut rand::rngs::StdRng| NodeId(rng.gen_range(0..nodes + 3));
    let port = |rng: &mut rand::rngs::StdRng| Dim(rng.gen_range(0..ports + 2));
    for _ in 0..rng.gen_range(0..6u32) {
        let (v, p) = (node(&mut rng), port(&mut rng));
        plan.fail_link(v, p);
    }
    for _ in 0..rng.gen_range(0..6u32) {
        let (v, p) = (node(&mut rng), port(&mut rng));
        plan.fail_lane(v, p, rng.gen_range(0..lanes + 2));
    }
    for _ in 0..rng.gen_range(0..4u32) {
        let v = node(&mut rng);
        plan.fail_node(v);
    }
    for _ in 0..rng.gen_range(0..4u32) {
        let (v, p) = (node(&mut rng), port(&mut rng));
        plan.stick(v, p);
    }
    if rng.gen_range(0..4u32) == 0 {
        // Stall-only damage still enters the wiring pass.
        plan.stall(NodeId(0), Dim(0), SimTime::ZERO, SimTime::from_us(1));
    }
    plan
}

mod wiring {
    use super::*;
    use hcube::{Mesh, MeshXY};
    use proptest::prelude::*;

    fn check<R: Router + Copy>(router: R, seed: u64) -> Result<(), TestCaseError> {
        let topo = router.topology();
        let plan = random_plan(
            seed,
            topo.node_count() as u32,
            topo.ports_per_node(),
            router.lanes(),
        );
        let (dead, stuck) = wired(router, &plan);
        let (want_dead, want_stuck) = per_channel(router, &plan);
        prop_assert_eq!(dead, want_dead, "dead marks under {:?}", plan);
        prop_assert_eq!(stuck, want_stuck, "stuck marks under {:?}", plan);
        Ok(())
    }

    proptest! {
        /// Walking the plan's fault sets marks exactly the channels the
        /// per-channel definition kills or wedges, on a cube, a 2-lane
        /// torus and a mesh (whose boundary ports are self-loops).
        #[test]
        fn fault_wiring_matches_the_per_channel_definition(seed in any::<u64>()) {
            check(ecube(Cube::of(4)), seed)?;
            let torus = TorusRouter::new(Torus::of(4, 2));
            prop_assert_eq!(torus.lanes(), 2);
            check(torus, seed)?;
            check(MeshXY::new(Mesh::of(4, 3)), seed)?;
        }
    }
}
