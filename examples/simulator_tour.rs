//! A tour of the wormhole network simulator itself: unicast latency
//! anatomy, distance insensitivity, channel contention, and the one-port
//! vs all-port node models.
//!
//! ```text
//! cargo run -p bench --release --example simulator_tour
//! ```

use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::PortModel;
use wormsim::{DepMessage, Run, SimParams, SimTime};

fn msg(src: u32, dst: u32, bytes: u32, deps: Vec<usize>) -> DepMessage {
    DepMessage {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes,
        deps,
        min_start: SimTime::ZERO,
    }
}

fn main() {
    let cube = Cube::of(6);
    let res = Resolution::HighToLow;
    let params = SimParams::ncube2(PortModel::AllPort);
    // The delivery time of one uncontended unicast from node 0.
    let unicast = |dst: u32, bytes: u32| {
        let w = [msg(0, dst, bytes, vec![])];
        let run = Run::new(Ecube::new(cube, res), &params, &w).run().unwrap();
        run.messages[0].delivered
    };

    println!("== 1. Unicast latency anatomy (nCUBE-2 parameters) ==");
    println!(
        "model: t_send {} + hops × t_hop {} + bytes × t_byte {} + t_recv {}",
        params.t_send_sw, params.t_hop, params.t_byte, params.t_recv_sw
    );
    for bytes in [64u32, 1024, 4096] {
        let t = unicast(0b111, bytes);
        println!("  {bytes:>5} B over 3 hops → {t}");
    }

    println!("\n== 2. Distance insensitivity (4 KB payload) ==");
    for dst in [1u32, 0b11, 0b1111, 0b111111] {
        let t = unicast(dst, 4096);
        println!("  {} hops → {t}", NodeId(0).distance(NodeId(dst)));
    }
    println!("  (5 extra hops cost 10 µs of ~2 ms: wormhole routing)");

    println!("\n== 3. Channel contention ==");
    // Two worms colliding mid-path: 000000→000011 and 000110→000011.
    let run = Run::new(
        Ecube::new(cube, res),
        &params,
        &[
            msg(0b000000, 0b000011, 4096, vec![]),
            msg(0b000110, 0b000011, 4096, vec![]),
        ],
    )
    .run()
    .unwrap();
    for (i, m) in run.messages.iter().enumerate() {
        println!(
            "  worm {i}: delivered {} (blocked {} times, {} waiting)",
            m.delivered, m.blocks, m.blocked_time
        );
    }
    println!("  the loser holds its first channel while waiting — wormhole blocking");

    println!("\n== 4. One-port vs all-port fan-out (three 4 KB sends) ==");
    for port in [PortModel::OnePort, PortModel::AllPort] {
        let p = SimParams::ncube2(port);
        let run = Run::new(
            Ecube::new(cube, res),
            &p,
            &[
                msg(0, 0b000001, 4096, vec![]),
                msg(0, 0b000010, 4096, vec![]),
                msg(0, 0b000100, 4096, vec![]),
            ],
        )
        .run()
        .unwrap();
        let last = run.messages.iter().map(|m| m.delivered).max().unwrap();
        println!(
            "  {:>9}: last of 3 parallel sends delivered at {last} (port waits {})",
            port.label(),
            run.stats.port_waits
        );
    }
    println!("  all-port overlaps the transfers; one-port pays them serially");

    println!("\n== 5. Dependency pipelines ==");
    // A 3-stage forward chain: 0 → 8 → 12 → 14.
    let run = Run::new(
        Ecube::new(cube, res),
        &params,
        &[
            msg(0, 0b001000, 4096, vec![]),
            msg(0b001000, 0b001100, 4096, vec![0]),
            msg(0b001100, 0b001110, 4096, vec![1]),
        ],
    )
    .run()
    .unwrap();
    for (i, m) in run.messages.iter().enumerate() {
        println!(
            "  stage {i}: injected {} delivered {}",
            m.injected, m.delivered
        );
    }
    println!("  each stage starts only after the previous payload arrives");
}
