//! Gallery of the collective operations built on the multicast trees:
//! broadcast, reduction, barrier, scatter, gather, all-to-all broadcast
//! (allgather), and pipelined chunked broadcast — each timed on the
//! simulated nCUBE-2. Every one but the broadcast is a collective
//! schedule, replayed by `simulate_collective`.
//!
//! ```text
//! cargo run -p bench --release --example collectives_gallery
//! ```

use hcube::{Cube, NodeId, Resolution};
use hypercast::collectives::{
    allgather, barrier, broadcast, chunked_multicast, gather, reduce, scatter,
};
use hypercast::{Algorithm, CollectiveSchedule, PortModel, TreeFamily};
use wormsim::{simulate_collective, simulate_multicast, SimParams, SimReport};

fn main() {
    let cube = Cube::of(6);
    let res = Resolution::HighToLow;
    let port = PortModel::AllPort;
    let params = SimParams::ncube2(port);
    let algo = Algorithm::WSort;
    let root = NodeId(0);
    let run = |sched: &CollectiveSchedule| -> SimReport {
        simulate_collective(sched, cube, res, &params)
    };

    println!(
        "collective operations on a {}-cube ({} nodes), W-sort trees, nCUBE-2 parameters\n",
        cube.dimension(),
        cube.node_count()
    );

    // Broadcast: one 4 KB payload to all 63 nodes.
    let bcast = broadcast(algo, cube, res, port, root).unwrap();
    let r = simulate_multicast(&bcast, &params, 4096);
    println!(
        "broadcast        4 KB → all        : {:>10}   ({} steps)",
        format!("{}", r.max_delay),
        bcast.steps
    );

    // Pipelined broadcast: same payload in 8 chunks.
    let r = run(&chunked_multicast(&bcast, 4096, 8).unwrap());
    println!(
        "broadcast (8-chunk pipeline)       : {:>10}",
        format!("{}", r.max_delay)
    );

    // Reduction: 64-byte contributions combined to the root.
    let r = run(&reduce(&bcast, 64).unwrap());
    println!(
        "reduction        64 B from all     : {:>10}",
        format!("{}", r.max_delay)
    );

    // Barrier: reduce + release, in one run.
    let b = barrier(&bcast, 16).unwrap();
    println!(
        "barrier          (reduce + release): {:>10}   ({} steps)",
        format!("{}", run(&b).max_delay),
        b.steps
    );

    // Scatter: a distinct 1 KB block to every node.
    let s = scatter(&bcast, 1024).unwrap();
    let r = run(&s);
    // Every block leaves the root once; forwarding re-sends it per hop.
    let root_bytes: u64 = s
        .ops
        .iter()
        .filter(|op| op.src == root)
        .map(|op| u64::from(op.bytes))
        .sum();
    let network_bytes: u64 = s
        .ops
        .iter()
        .map(|op| u64::from(op.bytes) * u64::from(op.src.distance(op.dst)))
        .sum();
    println!(
        "scatter          1 KB blocks       : {:>10}   (root injects {} KB, network carries {} KB·hop)",
        format!("{}", r.max_delay),
        root_bytes / 1024,
        network_bytes / 1024
    );

    // Gather: a distinct 1 KB block from every node.
    let r = run(&gather(&bcast, 1024).unwrap());
    println!(
        "gather           1 KB blocks       : {:>10}",
        format!("{}", r.max_delay)
    );

    // All-to-all broadcast: every node broadcasts 512 B, concurrently.
    let r = run(&allgather(TreeFamily::Alg(algo), cube, res, port, 512, None).unwrap());
    println!(
        "all-to-all bcast 512 B each        : {:>10}   ({} ops, {} cross-op blocking events)",
        format!("{}", r.max_delay),
        cube.node_count(),
        r.blocks
    );
}
