//! Allocation budgets of the tree replay paths and the engine:
//! `multicast_workload` allocates the workload, one inbound table, and
//! one `deps` vector per forward — nothing per node or per lookup — an
//! accepted analytic replay in a warm scratch allocates only its
//! report, whatever the tree's size, and so does an engine run in a
//! warm scratch, which also computes no route.

use hcube::{Cube, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wormsim::{
    analytic_replay, multicast_workload, DepMessage, EngineScratch, InboundIndex, Run, SimParams,
    SimTime,
};

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Fails only while the thread is being torn down, after the test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `m` destinations spread over an `n`-cube, avoiding the source.
fn spread_dests(n: u8, m: usize, src: NodeId) -> Vec<NodeId> {
    let nodes = 1u32 << n;
    (0..nodes)
        .map(|i| NodeId((i.wrapping_mul(389) + 17) % nodes))
        .filter(|&v| v != src)
        .take(m)
        .collect()
}

#[test]
fn multicast_workload_allocates_two_plus_one_per_forward() {
    let source = NodeId(0b10_1100_1101);
    for n in [6u8, 10] {
        let cube = Cube::of(n);
        let nodes = 1u32 << n;
        for m in [1, 7, 63, nodes as usize - 1] {
            let dests = spread_dests(n, m, NodeId(source.0 % nodes));
            for algo in Algorithm::PAPER {
                let src = NodeId(source.0 % nodes);
                let tree = algo
                    .build(cube, Resolution::HighToLow, PortModel::AllPort, src, &dests)
                    .unwrap();
                let forwards = tree.unicasts.iter().filter(|u| u.src != src).count() as u64;
                let before = ALLOCS.with(Cell::get);
                let workload = multicast_workload(&tree, 4096);
                let calls = ALLOCS.with(Cell::get) - before;
                assert_eq!(workload.len(), tree.unicasts.len());
                assert_eq!(
                    calls,
                    2 + forwards,
                    "{algo}, n = {n}, m = {m}: {forwards} forwards"
                );
            }
        }
    }
}

/// An accepted analytic replay in a warm scratch allocates its report
/// and nothing else: the deliveries and three `NetStats` vectors
/// (`dim_busy`, `dim_channels`, `lane_busy`), for any tree size.
#[test]
fn warm_analytic_replay_allocates_only_its_report() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut scratch = EngineScratch::new();
    for n in [6u8, 10] {
        let cube = Cube::of(n);
        let nodes = 1u32 << n;
        let src = NodeId(0b10_1100_1101 % nodes);
        for m in [1, 7, 63, nodes as usize - 1] {
            let dests = spread_dests(n, m, src);
            for algo in [Algorithm::Maxport, Algorithm::Combine, Algorithm::WSort] {
                let tree = algo
                    .build(cube, Resolution::HighToLow, PortModel::AllPort, src, &dests)
                    .unwrap();
                let warm = analytic_replay(&tree, &params, 4096, 1, &mut scratch);
                assert!(warm.is_some(), "{algo}, n = {n}, m = {m} declined");
                let before = ALLOCS.with(Cell::get);
                let report = analytic_replay(&tree, &params, 4096, 1, &mut scratch);
                let calls = ALLOCS.with(Cell::get) - before;
                assert!(report.is_some());
                assert_eq!(calls, 4, "{algo}, n = {n}, m = {m}");
            }
        }
    }
}

/// Allocation calls and route-memo misses of one engine run of
/// `workload` in `scratch`.
fn engine_run<R: Router>(
    router: R,
    workload: &[DepMessage],
    scratch: &mut EngineScratch,
) -> (u64, u64) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let misses = scratch.route_memo().misses();
    let before = ALLOCS.with(Cell::get);
    let run = Run::new(router, &params, workload).scratch(scratch).run();
    let calls = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        run.expect("well-formed workload").messages.len(),
        workload.len()
    );
    (calls, scratch.route_memo().misses() - misses)
}

/// A run in a reused scratch allocates its `RunResult` and nothing
/// else — the deliveries and three `NetStats` vectors — and finds every
/// route in the memo; a run in a fresh scratch allocates more.
fn assert_warm_run_allocates_only_its_result<R: Router + Copy>(
    name: &str,
    router: R,
    workload: &[DepMessage],
) {
    let (cold, _) = engine_run(router, workload, &mut EngineScratch::new());
    let mut scratch = EngineScratch::new();
    engine_run(router, workload, &mut scratch);
    let (warm, misses) = engine_run(router, workload, &mut scratch);
    assert_eq!((warm, misses), (4, 0), "{name}: warm (allocations, misses)");
    assert!(
        cold > warm,
        "{name}: a cold run made only {cold} allocations"
    );
}

#[test]
fn warm_engine_run_allocates_only_its_result() {
    for n in [6u8, 8] {
        let cube = Cube::of(n);
        let router = Ecube::new(cube, Resolution::HighToLow);
        let build = |src: NodeId, m: usize| {
            let dests: Vec<NodeId> = spread_dests(n, m, NodeId(0))
                .into_iter()
                .map(|d| NodeId(d.0 ^ src.0))
                .collect();
            Algorithm::WSort
                .build(cube, Resolution::HighToLow, PortModel::AllPort, src, &dests)
                .unwrap()
        };
        let replay = multicast_workload(&build(NodeId(0), 40), 1024);
        assert_warm_run_allocates_only_its_result(&format!("cube{n} replay"), router, &replay);

        // 30 sessions of 16 destinations, arriving 500 µs apart: the
        // layout traffic's session assembly builds.
        let mut sessions = Vec::new();
        let mut inbound = InboundIndex::default();
        for i in 0..30u32 {
            let tree = build(NodeId(i * 37 % cube.node_count() as u32), 16);
            inbound.append(
                &mut sessions,
                &tree,
                1024,
                SimTime::from_us(u64::from(i) * 500),
            );
        }
        assert_eq!(sessions.len(), 480);
        assert_warm_run_allocates_only_its_result(&format!("cube{n} sessions"), router, &sessions);
    }
    let unicasts: Vec<DepMessage> = spread_dests(6, 16, NodeId(0))
        .into_iter()
        .map(|dst| DepMessage {
            src: NodeId(0),
            dst,
            bytes: 1024,
            deps: Vec::new(),
            min_start: SimTime::ZERO,
        })
        .collect();
    let torus = TorusRouter::new(Torus::of(4, 3));
    assert_warm_run_allocates_only_its_result("torus4x3 unicasts", torus, &unicasts);
}
