//! Microbenchmarks of multicast tree construction: cost per algorithm as
//! the destination count grows (the paper's centralized preprocessing),
//! under the all-port, one-port and 2-port models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcube::{Cube, NodeId, Resolution};
use hypercast::{Algorithm, PortModel};
use workloads::destsets::{random_dests, trial_rng};

fn bench_construction(c: &mut Criterion) {
    let cube = Cube::of(10);
    let mut g = c.benchmark_group("tree_construction");
    for &m in &[15usize, 127, 1023] {
        let mut rng = trial_rng("bench_construction", m, 0);
        let dests = random_dests(&mut rng, cube, NodeId(0), m);
        for algo in Algorithm::PAPER {
            // All-port is the paper's model; one-port and 2-port take the
            // scheduler's other port branches (one shared port, the k cap).
            for port in [PortModel::AllPort, PortModel::OnePort, PortModel::KPort(2)] {
                let id = BenchmarkId::new(format!("{} {}", algo.name(), port.label()), m);
                g.bench_with_input(id, &dests, |b, dests| {
                    b.iter(|| {
                        std::hint::black_box(
                            algo.build(cube, Resolution::HighToLow, port, NodeId(0), dests)
                                .unwrap(),
                        )
                    })
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
