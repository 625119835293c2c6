//! Allocation budgets of the open-loop engine. A chaos run pays for its
//! waves and the epochs they run in, not for every epoch of its fault
//! timeline: fault events after the last attempt resolves cost (almost)
//! no allocations. A warm-scratch `traffic::run` stays within a pinned
//! count per backend.

use hcube::{Cube, Dim, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, CollectiveKind, PortModel, TreeFamily};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traffic::{
    run_chaos, ArrivalProcess, Arrivals, Backend, ChaosReport, ChaosSpec, ChurnSpec, DestPattern,
    RunOptions, TrafficSpec,
};
use wormsim::{EngineScratch, FaultEvent, FaultEventKind, FaultTimeline, SimParams, SimTime};

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

/// A churny 5-cube W-sort chaos run under `timeline`, with the
/// allocation calls it made.
fn counted_run(spec: &ChaosSpec, timeline: &FaultTimeline) -> (ChaosReport, u64) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let backend = Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort);
    let mut scratch = EngineScratch::new();
    let before = ALLOCS.with(Cell::get);
    let report = run_chaos(
        spec,
        backend,
        &params,
        RunOptions::default()
            .scratch(&mut scratch)
            .timeline(timeline),
    );
    (report, ALLOCS.with(Cell::get) - before)
}

#[test]
fn fault_events_after_the_last_attempt_cost_at_most_eight_allocations() {
    let mut traffic = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 2.0),
        DestPattern::UniformRandom { m: 6 },
        60,
        3,
    );
    traffic.horizon = SimTime::from_ms(200);
    let churn = ChurnSpec {
        link_mtbf_ms: 10.0,
        link_mttr_ms: 2.0,
        node_mtbf_ms: 40.0,
        node_mttr_ms: 3.0,
        churn_until: SimTime::from_ms(15),
    };
    let spec = ChaosSpec::new(traffic, ChurnSpec::quiet());
    let timeline = churn.timeline_on(&Cube::of(5), 3);
    let (base, base_allocs) = counted_run(&spec, &timeline);
    assert!(
        base.sessions.iter().any(|s| s.attempts > 1),
        "the base run must retry, or it measures no waves past epoch 0"
    );

    // 1,000 down/up pairs, each at its own instants, all after the last
    // attempt resolved: 2,000 more epochs in which nothing launches.
    let resolved = base
        .sessions
        .iter()
        .map(|s| s.completion)
        .max()
        .expect("the run has sessions");
    let mut events = timeline.events().to_vec();
    for i in 0..1_000u64 {
        let down = resolved.as_ns() + 1_000 + 20 * i;
        let link = (NodeId((i % 32) as u32), Dim((i % 5) as u8));
        events.push(FaultEvent {
            at: SimTime::from_ns(down),
            kind: FaultEventKind::LinkDown(link.0, link.1),
        });
        events.push(FaultEvent {
            at: SimTime::from_ns(down + 10),
            kind: FaultEventKind::LinkUp(link.0, link.1),
        });
    }
    let longer = FaultTimeline::new(events);
    let (extended, extended_allocs) = counted_run(&spec, &longer);
    assert_eq!(extended.epochs, base.epochs + 2_000);
    assert_eq!(
        format!("{:?}", extended.sessions),
        format!("{:?}", base.sessions)
    );
    // Same lookups; the extra epochs may only stale the last wave's
    // repaired trees.
    assert_eq!(
        (extended.cache.hits, extended.cache.misses),
        (base.cache.hits, base.cache.misses)
    );
    assert!(extended.cache.invalidations >= base.cache.invalidations);
    assert_eq!(extended.net, base.net);
    assert!(
        extended_allocs <= base_allocs + 8,
        "2,000 idle epochs cost {} allocations (base run: {base_allocs})",
        extended_allocs.saturating_sub(base_allocs)
    );
}

/// Allocation calls of a `traffic::run` of `spec` on `backend`, in a
/// scratch that one earlier run of the same spec has warmed.
fn warm_run_allocs<R: Router + Copy>(spec: &TrafficSpec, backend: Backend<R>) -> u64 {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut scratch = EngineScratch::new();
    let warmup = traffic::run(
        spec,
        backend,
        &params,
        RunOptions::default().scratch(&mut scratch),
    );
    assert!(warmup.completed_measured > 0, "the pinned run must deliver");
    let before = ALLOCS.with(Cell::get);
    let report = traffic::run(
        spec,
        backend,
        &params,
        RunOptions::default().scratch(&mut scratch),
    );
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(report);
    allocs
}

/// An allocation budget by build profile (debug builds make a few more
/// allocations than release builds).
fn pinned(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn warm_traffic_runs_stay_within_their_allocation_budget() {
    let multicast = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 2.0),
        DestPattern::UniformRandom { m: 6 },
        40,
        11,
    );
    let mut collective = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 0.05),
        DestPattern::UniformRandom { m: 6 },
        12,
        7,
    );
    collective.bytes = 256;
    let counts = [
        (
            "tree",
            warm_run_allocs(
                &multicast,
                Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort),
            ),
            pinned(836, 796),
        ),
        (
            "separate",
            warm_run_allocs(
                &multicast,
                Backend::Separate(TorusRouter::new(Torus::of(4, 2))),
            ),
            pinned(219, 219),
        ),
        (
            "collective",
            warm_run_allocs(
                &collective,
                Backend::collective(
                    Cube::of(4),
                    Resolution::HighToLow,
                    CollectiveKind::Allgather,
                    TreeFamily::Alg(Algorithm::WSort),
                ),
            ),
            pinned(6411, 6395),
        ),
    ];
    for (backend, allocs, budget) in counts {
        assert!(
            allocs <= budget,
            "{backend}: a warm run made {allocs} allocations (budget {budget})"
        );
    }
}
