//! Open-loop *collective* traffic: every session is one full-machine
//! collective operation instead of a single multicast.
//!
//! [`run`](crate::run) with [`Backend::Collective`] (a hypercube, trees
//! of a [`TreeFamily`](hypercast::TreeFamily)) or
//! [`Backend::SeparateCollective`] (direct exchange on any routed
//! topology) draws the arrival schedule and no destination pattern. The
//! session builder rebuilds each session's
//! [`CollectiveSchedule`](hypercast::CollectiveSchedule) at its arrival —
//! allgather and reduce-scatter re-derive all `N` constituent trees,
//! allreduce the one tree of its root, which rotates round-robin by
//! session index — and appends one message per op; the spec's `bytes`
//! is the per-node block size. [`Algorithm`](hypercast::Algorithm)-family
//! trees go through the run's shared [`TreeCache`](hypercast::TreeCache),
//! so after the first session the per-arrival cost is pointer-clone
//! cache hits plus dependency layout; bine trees are built directly
//! (they are cheaper to construct than to cache), and their spans make
//! no cache lookup. The sessions then run as one wave under the same
//! windowed engine as plain multicast traffic, so reports are directly
//! comparable. Collectives have no chaos mode.
//!
//! [`Backend::Collective`]: crate::Backend::Collective
//! [`Backend::SeparateCollective`]: crate::Backend::SeparateCollective

#[cfg(test)]
mod tests {
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::engine::{run, Backend, RunOptions, TrafficReport, TrafficSpec};
    use crate::patterns::DestPattern;
    use crate::telemetry::{Telemetry, TelemetryConfig};
    use hcube::{Cube, Resolution, Torus, TorusRouter};
    use hypercast::{Algorithm, CollectiveKind, PortModel, TreeFamily};
    use wormsim::SimParams;

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

    /// An observed allgather run of `family` trees on `cube`.
    fn observed_allgather(
        sessions: usize,
        cube: Cube,
        family: TreeFamily,
    ) -> (TrafficReport, Telemetry) {
        let params = SimParams::ncube2(PortModel::AllPort);
        let backend = Backend::collective(
            cube,
            Resolution::HighToLow,
            CollectiveKind::Allgather,
            family,
        );
        let cfg = TelemetryConfig::default();
        let mut tel = None;
        let opts = RunOptions::default().telemetry(&cfg, &mut tel);
        let report = run(&spec(sessions), backend, &params, opts);
        (report, tel.expect("telemetry was requested"))
    }

    #[test]
    fn algorithm_families_hit_the_cache_after_the_first_session() {
        let family = TreeFamily::Alg(Algorithm::WSort);
        let (report, tel) = observed_allgather(5, Cube::of(4), family);
        assert_eq!(report.cache.misses, 16, "one build per root, first session");
        assert_eq!(report.cache.hits, 4 * 16, "later sessions fully cached");
        let hits: Vec<Option<bool>> = tel
            .sessions
            .iter()
            .map(|t| t.attempts[0].cache_hit)
            .collect();
        assert_eq!(hits[0], Some(false));
        assert!(hits[1..].iter().all(|&hit| hit == Some(true)));
    }

    #[test]
    fn bine_family_builds_without_touching_the_cache() {
        let (report, tel) = observed_allgather(3, Cube::of(3), TreeFamily::Bine);
        assert_eq!(report.cache.misses + report.cache.hits, 0);
        assert_eq!(report.sessions.len(), 3);
        assert!(
            tel.sessions
                .iter()
                .all(|t| t.attempts[0].cache_hit.is_none()),
            "bine sessions make no cache lookup"
        );
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
