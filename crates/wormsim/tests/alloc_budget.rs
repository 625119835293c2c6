//! Allocation budgets of the tree replay paths and the engine:
//! `multicast_workload` allocates the workload, one inbound table, and
//! one `deps` vector per forward — nothing per node or per lookup — an
//! accepted analytic replay in a warm scratch allocates only its
//! report, whatever the tree's size, and so does an engine run in a
//! warm scratch. What a scratch holds stays bounded by its largest run.

use hcube::{Cube, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wormsim::{
    analytic_replay, multicast_workload, DepMessage, EngineScratch, InboundIndex, MulticastRun,
    Run, SimParams, SimTime,
};

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that changed this thread's live bytes by
/// `delta`.
fn bump(delta: i64) {
    // Fails only while the thread is being torn down, after the test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    track(delta);
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and live bytes per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
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
/// (`dim_busy`, `dim_channels`, `lane_busy`), for any tree size. A
/// `MulticastRun` in that scratch costs the same.
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
                // The replay builder takes the same path at the same cost.
                let accepted = scratch.analytic().accepted();
                let before = ALLOCS.with(Cell::get);
                let built = MulticastRun::new(&tree, &params, 4096)
                    .scratch(&mut scratch)
                    .run();
                let calls = ALLOCS.with(Cell::get) - before;
                assert_eq!(scratch.analytic().accepted(), accepted + 1);
                assert_eq!(built.deliveries.len(), tree.unicasts.len());
                assert_eq!(calls, 4, "builder: {algo}, n = {n}, m = {m}");
            }
        }
    }
}

/// Allocation calls of one engine run of `workload` in `scratch`.
fn engine_run<R: Router>(router: R, workload: &[DepMessage], scratch: &mut EngineScratch) -> u64 {
    let params = SimParams::ncube2(PortModel::AllPort);
    let before = ALLOCS.with(Cell::get);
    let run = Run::new(router, &params, workload).scratch(scratch).run();
    let calls = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        run.expect("well-formed workload").messages.len(),
        workload.len()
    );
    calls
}

/// A run in a reused scratch allocates its `RunResult` and nothing
/// else — the deliveries and three `NetStats` vectors; a run in a fresh
/// scratch allocates more.
fn assert_warm_run_allocates_only_its_result<R: Router + Copy>(
    name: &str,
    router: R,
    workload: &[DepMessage],
) {
    let cold = engine_run(router, workload, &mut EngineScratch::new());
    let mut scratch = EngineScratch::new();
    engine_run(router, workload, &mut scratch);
    let warm = engine_run(router, workload, &mut scratch);
    assert_eq!(warm, 4, "{name}: warm allocations");
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

/// One scratch replaying 300 distinct trees of 255 destinations on the
/// 10-cube holds as many bytes after the last tree as after the second:
/// its routes are the current tree's, not every `(src, dst)` pair it
/// has seen.
#[test]
fn scratch_stays_bounded_across_distinct_trees() {
    let n = 10u8;
    let nodes = 1u32 << n;
    let cube = Cube::of(n);
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut held = Vec::with_capacity(300);
    let base = LIVE.with(Cell::get);
    let mut scratch = EngineScratch::new();
    for i in 0..300u32 {
        // Distinct sources, each with its own translate of the set.
        let src = NodeId(i * 37 % nodes);
        let shift = i * 11 % nodes;
        let dests: Vec<NodeId> = spread_dests(n, 256, NodeId(0))
            .into_iter()
            .map(|d| NodeId(d.0 ^ shift))
            .filter(|&d| d != src)
            .take(255)
            .collect();
        let tree = Algorithm::WSort
            .build(cube, Resolution::HighToLow, PortModel::AllPort, src, &dests)
            .unwrap();
        let report = MulticastRun::new(&tree, &params, 4096)
            .scratch(&mut scratch)
            .run();
        assert_eq!(report.deliveries.len(), 255);
        drop((report, tree, dests));
        held.push(LIVE.with(Cell::get) - base);
    }
    assert_eq!(
        held[299], held[1],
        "bytes the scratch holds after the last tree vs after the second"
    );
}
