//! Open-loop *collective* traffic: every session is one full-machine
//! collective operation instead of a single multicast.
//!
//! Sessions arrive by the spec's [`Arrivals`](crate::arrivals::Arrivals)
//! process; each rebuilds its [`CollectiveSchedule`] — allgather and
//! reduce-scatter re-derive all `N` constituent trees, allreduce the one
//! tree of its (rotating) root — with [`Algorithm`](hypercast::Algorithm)-family trees going
//! through the run's shared [`TreeCache`], so after the first session
//! the per-arrival cost is pointer-clone cache hits plus dependency
//! layout. Bine trees are built directly (they are cheaper to construct
//! than to cache). The assembled workload then runs under the same
//! windowed engine as plain multicast traffic, so reports are directly
//! comparable: [`run`](crate::run) with [`Backend::Collective`] or
//! [`Backend::SeparateCollective`](crate::Backend::SeparateCollective).
//!
//! [`Backend::Collective`]: crate::Backend::Collective

use crate::engine::{SessionSpan, SessionWorkload, TrafficSpec};
use hcube::{Cube, NodeId, Resolution, Router, Topology};
use hypercast::collectives::{
    allgather, allgather_separate, allreduce, allreduce_separate, reduce_scatter,
    reduce_scatter_separate,
};
use hypercast::{CollectiveKind, CollectiveSchedule, TreeCache, TreeFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wormsim::{DepMessage, SimParams};

/// Appends one collective session to `workload`: one [`DepMessage`] per
/// op, dependency indices offset to the session's base, `min_start` =
/// the session's arrival.
fn push_collective_session(
    workload: &mut Vec<DepMessage>,
    sched: &CollectiveSchedule,
    arrival: wormsim::SimTime,
) -> std::ops::Range<usize> {
    let base = workload.len();
    for op in &sched.ops {
        workload.push(DepMessage {
            src: op.src,
            dst: op.dst,
            bytes: op.bytes,
            deps: op.deps.iter().map(|&d| base + d).collect(),
            min_start: arrival,
        });
    }
    base..workload.len()
}

/// Assembles the windowed workload of a hypercube collective traffic
/// run without simulating it: arrival schedule, per-session schedule
/// builds (tree families through the shared [`TreeCache`]), and
/// dependency wiring. The spec's `bytes` is the per-node block size;
/// allreduce roots rotate round-robin across sessions.
///
/// # Panics
/// If a schedule build fails — impossible for full-machine collectives
/// on a valid cube (every node is a legal source).
#[must_use]
pub fn assemble_collective_cube_sessions(
    spec: &TrafficSpec,
    cube: Cube,
    resolution: Resolution,
    kind: CollectiveKind,
    family: TreeFamily,
    params: &SimParams,
) -> SessionWorkload {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    let mut cache = TreeCache::new(spec.cache_capacity);
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut spans = Vec::with_capacity(schedule.len());
    let nodes = cube.node_count() as u32;
    for (i, &arrival) in schedule.iter().enumerate() {
        let before = cache.stats();
        let sched = match kind {
            CollectiveKind::Allgather => allgather(
                family,
                cube,
                resolution,
                params.port_model,
                spec.bytes,
                Some(&mut cache),
            ),
            CollectiveKind::ReduceScatter => reduce_scatter(
                family,
                cube,
                resolution,
                params.port_model,
                spec.bytes,
                Some(&mut cache),
            ),
            CollectiveKind::Allreduce => allreduce(
                family,
                cube,
                resolution,
                params.port_model,
                NodeId(i as u32 % nodes),
                spec.bytes,
                Some(&mut cache),
            ),
        }
        .expect("full-machine collectives cannot fail to build");
        let cache_hit = cache.stats().since(before).hits > 0;
        let range = push_collective_session(&mut workload, &sched, arrival);
        spans.push(SessionSpan {
            arrival,
            range,
            dests: sched.ops.iter().map(|op| op.dst).collect(),
            cache_hit,
        });
    }
    SessionWorkload::from_parts(workload, spans, cache.stats())
}

/// Assembles a **separate-addressing** collective traffic run on any
/// routed topology (the torus backend): no trees, no cache — each
/// session replays the direct-exchange schedule of its collective.
/// Allreduce roots rotate round-robin across sessions.
///
/// # Panics
/// If the topology has fewer than two nodes.
pub(crate) fn assemble_collective_separate_sessions_on<R: Router>(
    spec: &TrafficSpec,
    router: &R,
    kind: CollectiveKind,
) -> SessionWorkload {
    let topo = router.topology();
    let nodes = topo.node_count() as u32;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut spans = Vec::with_capacity(schedule.len());
    for (i, &arrival) in schedule.iter().enumerate() {
        let sched = match kind {
            CollectiveKind::Allgather => allgather_separate(&topo, spec.bytes),
            CollectiveKind::ReduceScatter => reduce_scatter_separate(&topo, spec.bytes),
            CollectiveKind::Allreduce => {
                allreduce_separate(&topo, NodeId(i as u32 % nodes), spec.bytes)
            }
        };
        let range = push_collective_session(&mut workload, &sched, arrival);
        spans.push(SessionSpan {
            arrival,
            range,
            dests: sched.ops.iter().map(|op| op.dst).collect(),
            cache_hit: false,
        });
    }
    SessionWorkload::from_parts(workload, spans, hypercast::CacheStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::engine::{run, Backend, RunOptions};
    use crate::patterns::DestPattern;
    use hcube::{Torus, TorusRouter};
    use hypercast::{Algorithm, PortModel};

    fn spec(sessions: usize) -> TrafficSpec {
        let mut s = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, 0.05),
            DestPattern::UniformRandom { m: 6 },
            sessions,
            7,
        );
        s.bytes = 256;
        s
    }

    #[test]
    fn collective_traffic_is_deterministic() {
        let params = SimParams::ncube2(PortModel::AllPort);
        for kind in CollectiveKind::ALL {
            let backend = Backend::collective(
                Cube::of(4),
                Resolution::HighToLow,
                kind,
                TreeFamily::Alg(Algorithm::WSort),
            );
            let a = run(&spec(12), backend, &params, RunOptions::default());
            let b = run(&spec(12), backend, &params, RunOptions::default());
            assert_eq!(a.latency.mean, b.latency.mean, "{}", kind.name());
            assert_eq!(a.completed_measured, b.completed_measured);
            assert_eq!(a.net.makespan, b.net.makespan);
        }
    }

    #[test]
    fn algorithm_families_hit_the_cache_after_the_first_session() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let sessions = assemble_collective_cube_sessions(
            &spec(5),
            Cube::of(4),
            Resolution::HighToLow,
            CollectiveKind::Allgather,
            TreeFamily::Alg(Algorithm::WSort),
            &params,
        );
        let stats = sessions.cache_stats();
        assert_eq!(stats.misses, 16, "one build per root, first session");
        assert_eq!(stats.hits, 4 * 16, "later sessions fully cached");
        assert!(!sessions.spans[0].cache_hit);
        assert!(sessions.spans[1..].iter().all(|s| s.cache_hit));
    }

    #[test]
    fn bine_family_builds_without_touching_the_cache() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let sessions = assemble_collective_cube_sessions(
            &spec(3),
            Cube::of(3),
            Resolution::HighToLow,
            CollectiveKind::Allgather,
            TreeFamily::Bine,
            &params,
        );
        let stats = sessions.cache_stats();
        assert_eq!(stats.misses + stats.hits, 0);
        assert_eq!(sessions.sessions(), 3);
    }

    #[test]
    fn separate_collectives_run_on_the_torus() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let torus = Torus::of(4, 2);
        for kind in CollectiveKind::ALL {
            let backend = Backend::SeparateCollective(TorusRouter::new(torus), kind);
            let report = run(&spec(6), backend, &params, RunOptions::default());
            assert_eq!(report.sessions.len(), 6, "{}", kind.name());
            assert!(report.completion_ratio > 0.0, "{}", kind.name());
        }
    }
}
