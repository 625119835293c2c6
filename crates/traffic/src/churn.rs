//! Online fault churn: seed-deterministic failure/repair processes.
//!
//! A [`ChurnSpec`] describes links and nodes dying and reviving *while
//! traffic flows*, as two independent MTBF/MTTR renewal processes (one
//! for links, one for nodes). Each process is rendered into a plain
//! [`FaultTimeline`] of timestamped events, which the chaos engine
//! walks epoch by epoch with one live [`wormsim::FaultPlan`] — churn is
//! *data*, generated up front, never sampled mid-simulation.
//!
//! **Model.** With per-element MTBF `μ` and `k` elements, the merged
//! failure stream is Poisson with constant rate `k/μ` (the superposition
//! of `k` exponential clocks); each failure picks its victim uniformly
//! among the elements currently *live* and schedules its repair an
//! `Exp(MTTR)` gap later. Failures are only injected before
//! [`ChurnSpec::churn_until`]; already-scheduled repairs complete
//! naturally afterwards, so the network always heals once churn stops —
//! the property that makes time-to-recover measurable.
//!
//! **Determinism.** Gaps are drawn through
//! [`exp_gap_ns`] (the same bit-exact
//! exponential sampler as Poisson arrivals), victims by index into a
//! sorted live-set, and the link and node streams use separate RNG
//! streams derived from the run seed — so enabling churn never perturbs
//! the traffic RNG stream, which is what keeps a quiet
//! ([`ChurnSpec::is_quiet`]) chaos run byte-identical to the plain
//! engine.

use crate::arrivals::exp_gap_ns;
use hcube::{Dim, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
use wormsim::{FaultEvent, FaultEventKind, FaultTimeline, SimTime};

/// Seed tweak of the link-churn RNG stream (`b"clnk"`).
const LINK_STREAM: u64 = 0x636c_6e6b;
/// Seed tweak of the node-churn RNG stream (`b"cnod"`).
const NODE_STREAM: u64 = 0x636e_6f64;

/// A failure/repair process over the measurement window. An MTBF of
/// [`f64::INFINITY`] disables the corresponding stream entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Mean time between failures of one directed link, in ms.
    pub link_mtbf_ms: f64,
    /// Mean time to repair a failed link, in ms.
    pub link_mttr_ms: f64,
    /// Mean time between failures of one node, in ms.
    pub node_mtbf_ms: f64,
    /// Mean time to repair a failed node, in ms.
    pub node_mttr_ms: f64,
    /// Failures are only injected before this time; pending repairs
    /// still complete afterwards (the network always heals).
    pub churn_until: SimTime,
}

impl ChurnSpec {
    /// No churn at all: both streams disabled.
    #[must_use]
    pub fn quiet() -> ChurnSpec {
        ChurnSpec {
            link_mtbf_ms: f64::INFINITY,
            link_mttr_ms: 0.0,
            node_mtbf_ms: f64::INFINITY,
            node_mttr_ms: 0.0,
            churn_until: SimTime::ZERO,
        }
    }

    /// Whether both streams are disabled (the generated timeline is
    /// empty and a chaos run degenerates to the plain engine).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.link_mtbf_ms.is_infinite() && self.node_mtbf_ms.is_infinite()
    }

    /// Renders the churn process on `topo` into a concrete event
    /// timeline, treating each link as a single failure element.
    /// Deterministic in `(spec, topology, seed)`; the RNG streams are
    /// derived from `seed` but separate from (and non-interfering with)
    /// the traffic engine's arrival/pattern stream.
    #[must_use]
    pub fn timeline_on<T: Topology>(&self, topo: &T, seed: u64) -> FaultTimeline {
        self.timeline_on_lanes(topo, 1, seed)
    }

    /// [`timeline_on`](ChurnSpec::timeline_on) at `(link, lane)` fault
    /// granularity: every lane of every directed link is an independent
    /// failure element, enumerated lane-minor (`(node, port, lane)`
    /// lexicographic). For the dateline torus at its default two lanes
    /// this is exactly the per-virtual-channel element space the old
    /// 4n-port encoding churned over, drawn in the same RNG order — the
    /// chaos sweep's byte-identity anchor. With `lanes = 1` the events
    /// are whole-link `LinkDown`/`LinkUp`, identical to `timeline_on`.
    ///
    /// # Panics
    /// If `lanes` is zero.
    #[must_use]
    pub fn timeline_on_lanes<T: Topology>(&self, topo: &T, lanes: u8, seed: u64) -> FaultTimeline {
        assert!(lanes >= 1, "a router has at least one lane");
        let mut events: Vec<FaultEvent> = Vec::new();
        if self.link_mtbf_ms.is_finite() {
            let links: Vec<(u32, u8, u8)> = (0..topo.node_count() as u32)
                .flat_map(|v| {
                    (0..topo.ports_per_node()).flat_map(move |p| (0..lanes).map(move |l| (v, p, l)))
                })
                .collect();
            renewal_stream(
                &mut StdRng::seed_from_u64(seed ^ LINK_STREAM),
                &links,
                self.link_mtbf_ms,
                self.link_mttr_ms,
                self.churn_until,
                &mut events,
                |&(v, p, l)| {
                    if lanes == 1 {
                        FaultEventKind::LinkDown(NodeId(v), Dim(p))
                    } else {
                        FaultEventKind::LaneDown(NodeId(v), Dim(p), l)
                    }
                },
                |&(v, p, l)| {
                    if lanes == 1 {
                        FaultEventKind::LinkUp(NodeId(v), Dim(p))
                    } else {
                        FaultEventKind::LaneUp(NodeId(v), Dim(p), l)
                    }
                },
            );
        }
        if self.node_mtbf_ms.is_finite() {
            let nodes: Vec<u32> = (0..topo.node_count() as u32).collect();
            renewal_stream(
                &mut StdRng::seed_from_u64(seed ^ NODE_STREAM),
                &nodes,
                self.node_mtbf_ms,
                self.node_mttr_ms,
                self.churn_until,
                &mut events,
                |&v| FaultEventKind::NodeDown(NodeId(v)),
                |&v| FaultEventKind::NodeUp(NodeId(v)),
            );
        }
        FaultTimeline::new(events)
    }
}

/// Generates one merged-Poisson failure/repair stream over `elements`,
/// appending `down`/`up` events. Victims are drawn uniformly among the
/// currently-live elements (a failure arriving while everything is down
/// is skipped); each failure schedules its own `Exp(mttr)` repair.
///
/// `elements` must be strictly increasing, so the `i`-th live index is
/// the `i`-th live element in `Ord` order: the live set is a Fenwick
/// tree over indices, and a victim draw costs O(log k), not O(k).
#[allow(clippy::too_many_arguments)]
fn renewal_stream<E: Ord, R: RngCore>(
    rng: &mut R,
    elements: &[E],
    mtbf_ms: f64,
    mttr_ms: f64,
    churn_until: SimTime,
    events: &mut Vec<FaultEvent>,
    down: impl Fn(&E) -> FaultEventKind,
    up: impl Fn(&E) -> FaultEventKind,
) {
    assert!(
        mtbf_ms > 0.0 && mttr_ms >= 0.0,
        "MTBF must be positive and MTTR nonnegative"
    );
    debug_assert!(
        elements.windows(2).all(|w| w[0] < w[1]),
        "churn elements must be strictly increasing"
    );
    if elements.is_empty() || churn_until == SimTime::ZERO {
        return;
    }
    // Superposition of per-element exponential clocks: one merged
    // Poisson stream at k/MTBF. The rate is held constant (not scaled by
    // the momentarily-live count) — a second-order effect at realistic
    // failure densities, and it keeps the stream a pure function of the
    // RNG state.
    let mean_gap_ns = mtbf_ms * 1.0e6 / elements.len() as f64;
    let mean_repair_ns = mttr_ms * 1.0e6;
    let mut live = LiveSet::full(elements.len());
    // Pending repairs as (time, element index): ordered exactly like
    // (time, element), since indices follow the elements' order.
    let mut repairs: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut now: u64 = 0;
    loop {
        now += exp_gap_ns(rng, mean_gap_ns).max(1);
        if SimTime::from_ns(now) >= churn_until {
            break;
        }
        // Complete every repair due before this failure, so the victim
        // draw sees the true live-set.
        while let Some(&(t, i)) = repairs.first() {
            if t > now {
                break;
            }
            repairs.pop_first();
            events.push(FaultEvent {
                at: SimTime::from_ns(t),
                kind: up(&elements[i]),
            });
            live.insert(i);
        }
        if live.len() == 0 {
            continue; // everything is already down; the arrival is lost
        }
        let victim = live.select(rng.gen_range(0..live.len()));
        live.remove(victim);
        events.push(FaultEvent {
            at: SimTime::from_ns(now),
            kind: down(&elements[victim]),
        });
        let back = now + exp_gap_ns(rng, mean_repair_ns).max(1);
        repairs.insert((back, victim));
    }
    // Churn stopped: let every scheduled repair complete.
    for &(t, i) in &repairs {
        events.push(FaultEvent {
            at: SimTime::from_ns(t),
            kind: up(&elements[i]),
        });
    }
}

/// The live subset of `0..k` as a Fenwick tree of 0/1 marks, with an
/// order-statistic [`select`](LiveSet::select).
struct LiveSet {
    /// `tree[i]` (1-based) counts the live indices in
    /// `(i - lowbit(i), i]`.
    tree: Vec<u32>,
    len: usize,
}

impl LiveSet {
    /// Every index of `0..k` live.
    fn full(k: usize) -> LiveSet {
        // Linear-time build: each node's count is its range's width.
        let tree = (0..=k).map(|i| (i & i.wrapping_neg()) as u32).collect();
        LiveSet { tree, len: k }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Marks the dead index `index` live.
    fn insert(&mut self, index: usize) {
        self.add(index, 1);
        self.len += 1;
    }

    /// Marks the live index `index` dead.
    fn remove(&mut self, index: usize) {
        self.add(index, -1);
        self.len -= 1;
    }

    /// The `rank`-th live index (0-based, ascending); `rank < len()`.
    fn select(&self, mut rank: usize) -> usize {
        debug_assert!(rank < self.len);
        let mut pos = 0;
        let mut step = 1usize << (self.tree.len() - 1).ilog2();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && (self.tree[next] as usize) <= rank {
                pos = next;
                rank -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        // `pos` is the 1-based position before the answer.
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcube::Cube;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The straightforward renewal stream `renewal_stream` must equal
    /// event for event: the live set as a `BTreeSet`, victims drawn by
    /// `nth` in O(live).
    fn reference_stream<R: RngCore>(
        rng: &mut R,
        elements: &[u32],
        mtbf_ms: f64,
        mttr_ms: f64,
        churn_until: SimTime,
    ) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        let down = |v: u32| FaultEventKind::NodeDown(NodeId(v));
        let up = |v: u32| FaultEventKind::NodeUp(NodeId(v));
        let mean_gap_ns = mtbf_ms * 1.0e6 / elements.len() as f64;
        let mean_repair_ns = mttr_ms * 1.0e6;
        let mut live: BTreeSet<u32> = elements.iter().copied().collect();
        let mut repairs: BTreeMap<(u64, u32), ()> = BTreeMap::new();
        let mut now: u64 = 0;
        loop {
            now += exp_gap_ns(rng, mean_gap_ns).max(1);
            if SimTime::from_ns(now) >= churn_until {
                break;
            }
            while let Some((&(t, e), ())) = repairs.iter().next() {
                if t > now {
                    break;
                }
                repairs.remove(&(t, e));
                events.push(FaultEvent {
                    at: SimTime::from_ns(t),
                    kind: up(e),
                });
                live.insert(e);
            }
            if live.is_empty() {
                continue;
            }
            let idx = rng.gen_range(0..live.len());
            let victim = *live.iter().nth(idx).expect("index < len");
            live.remove(&victim);
            events.push(FaultEvent {
                at: SimTime::from_ns(now),
                kind: down(victim),
            });
            let back = now + exp_gap_ns(rng, mean_repair_ns).max(1);
            repairs.insert((back, victim), ());
        }
        for (&(t, e), ()) in &repairs {
            events.push(FaultEvent {
                at: SimTime::from_ns(t),
                kind: up(e),
            });
        }
        events
    }

    /// `renewal_stream` and the reference on `k` sparse elements.
    fn both_streams(k: usize, mtbf_ms: f64, mttr_ms: f64, seed: u64) -> [Vec<FaultEvent>; 2] {
        // Gaps between elements, so an element index never equals its
        // element.
        let elements: Vec<u32> = (0..k as u32).map(|i| 3 * i + 1).collect();
        let until = SimTime::from_ms(4);
        let mut fast = Vec::new();
        renewal_stream(
            &mut StdRng::seed_from_u64(seed),
            &elements,
            mtbf_ms,
            mttr_ms,
            until,
            &mut fast,
            |&v| FaultEventKind::NodeDown(NodeId(v)),
            |&v| FaultEventKind::NodeUp(NodeId(v)),
        );
        let slow = reference_stream(
            &mut StdRng::seed_from_u64(seed),
            &elements,
            mtbf_ms,
            mttr_ms,
            until,
        );
        [fast, slow]
    }

    const MTBFS_MS: [f64; 4] = [0.2, 2.0, 20.0, 200.0];
    const MTTRS_MS: [f64; 4] = [0.0, 0.1, 1.0, 30.0];

    proptest! {
        /// The Fenwick-tree victim draw reproduces the `BTreeSet`/`nth`
        /// stream exactly, across element counts, densities and seeds.
        #[test]
        fn renewal_stream_matches_the_btreeset_reference(
            k in 1usize..=600,
            mtbf in 0usize..4,
            mttr in 0usize..4,
            seed in any::<u64>(),
        ) {
            let [fast, slow] = both_streams(k, MTBFS_MS[mtbf], MTTRS_MS[mttr], seed);
            prop_assert_eq!(fast, slow);
        }
    }

    /// The Fenwick tree's power-of-two boundaries, with every element
    /// down at once now and then (MTTR far above the failure gap).
    #[test]
    fn renewal_stream_matches_the_reference_at_fenwick_boundaries() {
        for k in [
            1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 384, 511, 512, 600,
        ] {
            for (mtbf, mttr) in [(0.2, 30.0), (2.0, 1.0)] {
                let [fast, slow] = both_streams(k, mtbf, mttr, k as u64);
                assert!(!fast.is_empty(), "k {k}: this spec must churn");
                assert_eq!(fast, slow, "k {k}, MTBF {mtbf}, MTTR {mttr}");
            }
        }
    }

    fn churny() -> ChurnSpec {
        ChurnSpec {
            link_mtbf_ms: 50.0,
            link_mttr_ms: 2.0,
            node_mtbf_ms: 200.0,
            node_mttr_ms: 3.0,
            churn_until: SimTime::from_ms(20),
        }
    }

    #[test]
    fn quiet_spec_generates_no_events() {
        let tl = ChurnSpec::quiet().timeline_on(&Cube::of(6), 42);
        assert!(tl.is_empty());
    }

    #[test]
    fn timeline_is_seed_deterministic() {
        let spec = churny();
        let a = spec.timeline_on(&Cube::of(6), 42);
        let b = spec.timeline_on(&Cube::of(6), 42);
        assert_eq!(a, b);
        let c = spec.timeline_on(&Cube::of(6), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn every_failure_is_eventually_repaired() {
        let tl = churny().timeline_on(&Cube::of(6), 7);
        assert!(!tl.is_empty(), "this spec must actually produce churn");
        let mut cursor = tl.cursor(wormsim::FaultPlan::none());
        while cursor.advance() {}
        assert!(
            cursor.plan().is_empty(),
            "final epoch must be fully healed, got {:?}",
            cursor.plan()
        );
    }

    #[test]
    fn failures_stop_at_churn_until() {
        let spec = churny();
        let tl = spec.timeline_on(&Cube::of(6), 7);
        for e in tl.events() {
            match e.kind {
                FaultEventKind::LinkDown(..)
                | FaultEventKind::NodeDown(..)
                | FaultEventKind::LaneDown(..) => {
                    assert!(e.at < spec.churn_until, "failure at {} after cutoff", e.at);
                }
                FaultEventKind::LinkUp(..)
                | FaultEventKind::NodeUp(..)
                | FaultEventKind::LaneUp(..) => {}
            }
        }
    }

    /// The lane-granular element space draws the same RNG stream as an
    /// equally-sized single-lane port space: 2 lanes over 2n torus
    /// ports churn exactly like 4n ports did under the old VC-in-port
    /// encoding, element-for-element — the byte-identity anchor of the
    /// chaos sweep's torus rows.
    #[test]
    fn lane_churn_matches_an_equivalent_port_space() {
        let mut spec = churny();
        spec.node_mtbf_ms = f64::INFINITY;
        // 16 nodes × (4 ports × 2 lanes) vs 16 nodes × (8 ports): the
        // element spaces have equal size and lexicographic order under
        // the lane-minor mapping port4 = 2·port + lane.
        let narrow = hcube::Torus::of(4, 2); // 2n = 4 ports
        let wide = hcube::Torus::of(2, 4); // 2n = 8 ports
        assert_eq!(narrow.node_count(), wide.node_count());
        let lanes = spec.timeline_on_lanes(&narrow, 2, 42);
        let ports = spec.timeline_on(&wide, 42);
        assert!(!lanes.is_empty());
        let rank = |kind: FaultEventKind| -> (bool, u32, usize) {
            match kind {
                FaultEventKind::LaneDown(v, p, l) => {
                    (true, v.0, usize::from(p.0) * 2 + usize::from(l))
                }
                FaultEventKind::LaneUp(v, p, l) => {
                    (false, v.0, usize::from(p.0) * 2 + usize::from(l))
                }
                FaultEventKind::LinkDown(v, p) => (true, v.0, usize::from(p.0)),
                FaultEventKind::LinkUp(v, p) => (false, v.0, usize::from(p.0)),
                FaultEventKind::NodeDown(..) | FaultEventKind::NodeUp(..) => unreachable!(),
            }
        };
        let ev_lane: Vec<_> = lanes
            .events()
            .iter()
            .map(|e| (e.at, rank(e.kind)))
            .collect();
        let ev_port: Vec<_> = ports
            .events()
            .iter()
            .map(|e| (e.at, rank(e.kind)))
            .collect();
        assert_eq!(ev_lane, ev_port);
        // And every multi-lane event is lane-granular.
        assert!(lanes.events().iter().all(|e| matches!(
            e.kind,
            FaultEventKind::LaneDown(..) | FaultEventKind::LaneUp(..)
        )));
    }

    #[test]
    fn higher_churn_rate_means_more_failures() {
        let mut calm = churny();
        calm.link_mtbf_ms = 400.0;
        calm.node_mtbf_ms = f64::INFINITY;
        let mut wild = calm;
        wild.link_mtbf_ms = 20.0;
        let cube = Cube::of(6);
        assert!(wild.timeline_on(&cube, 5).len() > calm.timeline_on(&cube, 5).len());
    }

    #[test]
    fn link_only_churn_never_touches_nodes() {
        let mut spec = churny();
        spec.node_mtbf_ms = f64::INFINITY;
        let tl = spec.timeline_on(&Cube::of(6), 11);
        assert!(tl.events().iter().all(|e| matches!(
            e.kind,
            FaultEventKind::LinkDown(..) | FaultEventKind::LinkUp(..)
        )));
    }
}
