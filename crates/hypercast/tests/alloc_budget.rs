//! Allocation budgets of tree construction and repair:
//! `Algorithm::build` allocates a constant number of times per tree,
//! whatever the destination count, and a repair on a warm scratch
//! allocates only the outcome it returns. Counts are deterministic, so
//! this gates work where a clock could not.

use hcube::{Cube, Dim, NodeId, Resolution};
use hypercast::repair::{NetworkFaults, RepairScratch};
use hypercast::{Algorithm, PortModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// `m` distinct destinations other than `source` in an `n`-cube, spread
/// by a multiplicative walk over the node addresses.
fn dests(n: u8, source: u32, m: usize) -> Vec<NodeId> {
    let nodes = 1u32 << n;
    (0..nodes)
        .map(|i| NodeId((i.wrapping_mul(389) + 17) % nodes))
        .filter(|&v| v != NodeId(source))
        .take(m)
        .collect()
}

#[test]
fn build_allocates_a_constant_number_of_times_per_tree() {
    let cube = Cube::of(10);
    let source = 0b10_1100_1101;
    let ports = [PortModel::OnePort, PortModel::AllPort, PortModel::KPort(2)];
    for algo in Algorithm::PAPER {
        for port in ports {
            for res in [Resolution::HighToLow, Resolution::LowToHigh] {
                let counts: Vec<u64> = [127, 511, 1023]
                    .into_iter()
                    .map(|m| {
                        let dests = dests(10, source, m);
                        let before = ALLOCS.with(Cell::get);
                        let tree = algo.build(cube, res, port, NodeId(source), &dests).unwrap();
                        let calls = ALLOCS.with(Cell::get) - before;
                        assert_eq!(tree.unicasts.len(), m);
                        calls
                    })
                    .collect();
                assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "{algo} {port:?} {res:?}: allocations at m = 127, 511, 1023 were {counts:?}"
                );
            }
        }
    }
}

#[test]
fn warm_repair_allocates_only_its_outcome() {
    let cube = Cube::of(8);
    let source = NodeId(0);
    let mut scratch = RepairScratch::default();
    let mut counts = Vec::new();
    for m in [8, 64, 255] {
        let dests = dests(8, source.0, m);
        let tree = Algorithm::WSort
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                source,
                &dests,
            )
            .unwrap();
        // A dead destination that forwards: its subtree is orphaned, so
        // `dropped` and `rerouted` are non-empty in every case.
        let dead = tree.unicasts.iter().find(|u| u.src != source).unwrap().src;
        for links in [0u32, 4, 32] {
            let mut faults = NetworkFaults::new();
            faults.fail_node(dead);
            for i in 0..links {
                faults.fail_link(NodeId((i * 97 + 13) % 256), Dim((i % 8) as u8));
            }
            // Warm-up: the buffers grow to this repair's working set.
            let _ = scratch.repair(&tree, &faults);
            let before = ALLOCS.with(Cell::get);
            let out = scratch.repair(&tree, &faults);
            let calls = ALLOCS.with(Cell::get) - before;
            assert!(!out.dropped.is_empty() && !out.rerouted.is_empty());
            assert!(out.unreachable.is_empty(), "m = {m}, {links} links");
            counts.push(calls);
        }
    }
    // The unicast vector, `dropped` and `rerouted`; nothing else.
    assert!(
        counts.iter().all(|&c| c == 3),
        "allocations at m = 8, 64, 255 × 0, 4, 32 dead links were {counts:?}"
    );
}
