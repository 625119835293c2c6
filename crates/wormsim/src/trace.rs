//! Execution tracing: per-channel occupancy timelines and utilization
//! statistics.
//!
//! The engine's [`RunResult`] summarizes *when* messages arrived; a
//! [`ChannelTrace`] reconstructs *where they were* — which directed
//! channels each worm held, and for how long — enabling the utilization
//! accounting MultiSim-era studies reported and an ASCII occupancy
//! timeline for small runs.
//!
//! The trace is reconstructed from message results rather than recorded
//! inside the hot event loop: for an unblocked worm the occupancy of its
//! whole route is `[injected, network_done]`, and blocked intervals are
//! bounded by the same window, so the reconstruction is exact for
//! contention-free runs and a tight envelope otherwise.
//!
//! Reconstruction is topology-generic: channel indices and labels come
//! from the [`Router`]'s topology, so the same timeline renderer serves
//! the hypercube (`0101--3→`) and the torus (`2,1--d0+v1→`).

use crate::engine::{DepMessage, RunResult};
use crate::network::ChannelMap;
use crate::params::SimParams;
use crate::time::SimTime;
use hcube::Router;
use std::fmt::Write as _;

/// One channel-holding interval of one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// Index of the message in the workload.
    pub message: usize,
    /// Dense channel index (see [`ChannelMap`]).
    pub channel: usize,
    /// When the worm acquired (at latest) the channel.
    pub from: SimTime,
    /// When the channel was released (tail drain).
    pub until: SimTime,
}

/// Reconstructed channel-occupancy view of a run.
#[derive(Clone, Debug)]
pub struct ChannelTrace {
    /// All occupancy intervals, ordered by message then hop.
    pub occupancies: Vec<Occupancy>,
    /// Total number of directed external channels in the topology.
    pub external_channels: usize,
    /// The run's makespan.
    pub makespan: SimTime,
    /// Human-readable labels of the channels appearing in
    /// `occupancies`, sorted by channel index (captured from the
    /// topology at reconstruction time).
    pub labels: Vec<(usize, String)>,
}

impl ChannelTrace {
    /// Builds the trace for a run completed on any routed topology.
    #[must_use]
    pub fn reconstruct<R: Router>(
        router: R,
        params: &SimParams,
        workload: &[DepMessage],
        run: &RunResult,
    ) -> ChannelTrace {
        let map = ChannelMap::new(router);
        let mut occupancies = Vec::new();
        let mut makespan = SimTime::ZERO;
        for (i, (m, r)) in workload.iter().zip(&run.messages).enumerate() {
            let route = map.route(params.port_model, m.src, m.dst);
            for ch in route {
                if map.is_virtual(ch) {
                    continue;
                }
                occupancies.push(Occupancy {
                    message: i,
                    channel: ch,
                    from: r.injected,
                    until: r.network_done,
                });
            }
            makespan = makespan.max(r.delivered);
        }
        let mut used: Vec<usize> = occupancies.iter().map(|o| o.channel).collect();
        used.sort_unstable();
        used.dedup();
        let labels = used.into_iter().map(|ch| (ch, map.label(ch))).collect();
        ChannelTrace {
            occupancies,
            external_channels: map.externals(),
            makespan,
            labels,
        }
    }

    /// Mean external-channel utilization over the run: the fraction of
    /// (channel × makespan) area covered by occupancy intervals.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan == SimTime::ZERO || self.external_channels == 0 {
            return 0.0;
        }
        let held: u64 = self
            .occupancies
            .iter()
            .map(|o| o.until.saturating_sub(o.from).as_ns())
            .sum();
        held as f64 / (self.makespan.as_ns() as f64 * self.external_channels as f64)
    }

    /// The number of distinct external channels ever held.
    #[must_use]
    pub fn channels_used(&self) -> usize {
        self.labels.len()
    }

    /// Renders an ASCII occupancy timeline (one row per used channel,
    /// `width` time buckets; letters identify messages). Channel labels
    /// come from the topology the trace was reconstructed on. Intended
    /// for small illustrative runs.
    #[must_use]
    pub fn render_timeline(&self, width: usize) -> String {
        let mut rows: Vec<(usize, Vec<char>)> = self
            .labels
            .iter()
            .map(|&(ch, _)| (ch, vec!['.'; width]))
            .collect();
        let total = self.makespan.as_ns().max(1);
        for o in &self.occupancies {
            let glyph = char::from(b'A' + (o.message % 26) as u8);
            let lo = (o.from.as_ns() * width as u64 / total) as usize;
            let hi = (o.until.as_ns() * width as u64 / total) as usize;
            if let Some((_, row)) = rows.iter_mut().find(|(c, _)| *c == o.channel) {
                for cell in row
                    .iter_mut()
                    .take(hi.min(width - 1) + 1)
                    .skip(lo.min(width - 1))
                {
                    *cell = glyph;
                }
            }
        }
        let pad = self
            .labels
            .iter()
            .map(|(_, l)| l.chars().count())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "channel occupancy (0 .. {}):", self.makespan);
        for ((_, row), (_, label)) in rows.into_iter().zip(&self.labels) {
            let line: String = row.into_iter().collect();
            let fill = pad - label.chars().count();
            let _ = writeln!(out, "  {label}{} |{line}|", " ".repeat(fill));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Run;
    use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
    use hypercast::PortModel;

    /// A fault-free, unobserved run of a well-formed workload.
    fn replay<R: Router>(router: R, params: &SimParams, workload: &[DepMessage]) -> RunResult {
        Run::new(router, params, workload).run().unwrap()
    }

    fn msg(src: u32, dst: u32, bytes: u32) -> DepMessage {
        DepMessage {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            deps: Vec::new(),
            min_start: SimTime::ZERO,
        }
    }

    fn setup(workload: &[DepMessage]) -> (Cube, SimParams, ChannelTrace, RunResult) {
        let cube = Cube::of(4);
        let params = SimParams::ncube2(PortModel::AllPort);
        let run = replay(Ecube::new(cube, Resolution::HighToLow), &params, workload);
        let trace = ChannelTrace::reconstruct(
            Ecube::new(cube, Resolution::HighToLow),
            &params,
            workload,
            &run,
        );
        (cube, params, trace, run)
    }

    #[test]
    fn occupancy_covers_each_hop_once() {
        let w = vec![msg(0b0101, 0b1110, 4096)];
        let (_, _, trace, run) = setup(&w);
        assert_eq!(trace.occupancies.len(), 3);
        for o in &trace.occupancies {
            assert_eq!(o.from, run.messages[0].injected);
            assert_eq!(o.until, run.messages[0].network_done);
        }
        assert_eq!(trace.channels_used(), 3);
    }

    #[test]
    fn utilization_is_a_sane_fraction() {
        let w: Vec<DepMessage> = (1..16u32).map(|d| msg(0, d, 4096)).collect();
        let (_, _, trace, _) = setup(&w);
        let u = trace.utilization();
        assert!(u > 0.0 && u < 1.0, "utilization {u}");
    }

    #[test]
    fn timeline_renders_used_channels_only() {
        let w = vec![msg(0, 0b0011, 2048), msg(0b1000, 0b1100, 2048)];
        let (_, _, trace, _) = setup(&w);
        let s = trace.render_timeline(40);
        // 2 + 1 hops = 3 channel rows.
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains('A'));
        assert!(s.contains('B'));
        // Labels are the cube's binary-address channel labels.
        assert!(s.contains("--1→"), "timeline:\n{s}");
    }

    #[test]
    fn empty_run_has_zero_utilization() {
        let (_, _, trace, _) = setup(&[]);
        assert_eq!(trace.utilization(), 0.0);
        assert_eq!(trace.channels_used(), 0);
    }

    #[test]
    fn virtual_channels_excluded_from_trace() {
        let cube = Cube::of(3);
        let params = SimParams::ncube2(PortModel::OnePort);
        let w = vec![msg(0, 0b111, 128)];
        let run = replay(Ecube::new(cube, Resolution::HighToLow), &params, &w);
        let trace =
            ChannelTrace::reconstruct(Ecube::new(cube, Resolution::HighToLow), &params, &w, &run);
        assert_eq!(trace.occupancies.len(), 3, "injection/consumption excluded");
        assert!(trace
            .occupancies
            .iter()
            .all(|o| o.channel < cube.channel_count()));
    }

    #[test]
    fn torus_trace_uses_coordinate_labels() {
        let torus = Torus::of(4, 2);
        let router = TorusRouter::new(torus);
        let params = SimParams::ncube2(PortModel::AllPort);
        let w = vec![DepMessage {
            src: torus.node_at(&[3, 0]),
            dst: torus.node_at(&[1, 0]), // wraps: 3 → 0 → 1 in dim 0
            bytes: 512,
            deps: Vec::new(),
            min_start: SimTime::ZERO,
        }];
        let run = replay(router, &params, &w);
        let trace = ChannelTrace::reconstruct(router, &params, &w, &run);
        assert_eq!(trace.occupancies.len(), 2);
        let s = trace.render_timeline(32);
        assert!(s.contains("3,0--d0+v0→"), "timeline:\n{s}");
        assert!(s.contains("0,0--d0+v1→"), "dateline VC visible:\n{s}");
    }
}
