//! Allocation budget of tree construction: `Algorithm::build` allocates
//! a constant number of times per tree, whatever the destination count.
//! Counts are deterministic, so this gates work where a clock could not.

use hcube::{Cube, NodeId, Resolution};
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
