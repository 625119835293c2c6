//! Lane sweep: how many virtual lanes per link does it take for naive
//! concurrent multicasts to match W-sort's zero-contention row?
//!
//! The paper gets contention-freedom by construction (W-sort, Theorem
//! 6) — but only *within one multicast*. Collective data distribution
//! runs several multicasts at once, from independent sources that share
//! no schedule, and trees are routinely replayed on topologies they
//! were not designed for (a torus wrap, a west-first mesh). The lane
//! tentpole asks the dual question: how much lane redundancy buys back
//! zero blocking when the traffic is naive in either sense?
//!
//! Every trial draws `sources` concurrent multicast sessions on the
//! shared 64-node address space (distinct sources, paired destination
//! draws across algorithms), builds one tree per session per paper
//! algorithm on the 6-cube, and replays the *merged dependency
//! workload* at a ladder of lane counts on four routed networks:
//!
//! * `cube6` — E-cube routing, `lanes ∈ {1, 2, 4, 8}` (one lane class);
//! * `torus4x3` — dimension-ordered routing with dateline lane classes,
//!   `lanes ∈ {2, 4, 8}` (two classes of `m = lanes/2`);
//! * `mesh8x8` — the west-first [`MinimalAdaptive`] router;
//! * `mesh8x8-xy` — deterministic XY on the same mesh, the baseline
//!   that shows what adaptivity (rather than raw lane count) buys.
//!
//! For the cube series the sweep also reports the *analytic* lane
//! demand: [`hypercast::contention::min_lanes_for_concurrent`], the
//! maximum per-arc clique of the combined conflict graph (Definition-4
//! witnesses within a tree, unconditional conflicts across trees) — the
//! worst-case simultaneous demand a perfectly adaptive lane allocator
//! would have to absorb.
//!
//! Everything is keyed off `LaneSweepConfig::seed`; identical configs
//! regenerate `results/lane_sweep.{txt,json}` byte for byte.

use crate::artifact::{record, Artifact};
use crate::trafficsweep::run_seed;
use hcube::{Cube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Torus, TorusRouter};
use hypercast::contention::min_lanes_for_concurrent;
use hypercast::{Algorithm, MulticastTree, PortModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wormsim::{multicast_workload, DepMessage, EngineScratch, Run, SimParams};

/// Sweep dimensions and seeding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneSweepConfig {
    /// Destination draws per (network, algorithm, lane) cell.
    pub trials: usize,
    /// Concurrent multicast sessions per trial (distinct sources).
    pub sources: usize,
    /// Destinations per multicast.
    pub m: usize,
    /// Payload bytes per unicast.
    pub bytes: u32,
    /// Master seed; every trial's source/destination draw derives from it.
    pub seed: u64,
    /// Lane ladder for single-class routers (cube, mesh). The torus
    /// runs the even rungs only (its lanes come in dateline pairs).
    pub lane_ladder: Vec<u8>,
}

impl LaneSweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> LaneSweepConfig {
        LaneSweepConfig {
            trials: 6,
            sources: 4,
            m: 16,
            bytes: 4096,
            seed: 17,
            lane_ladder: vec![1, 2, 4, 8],
        }
    }

    /// A short configuration for CI smoke runs (same schema, same code
    /// paths, less work).
    #[must_use]
    pub fn smoke() -> LaneSweepConfig {
        LaneSweepConfig {
            trials: 2,
            sources: 3,
            m: 8,
            bytes: 1024,
            seed: 17,
            lane_ladder: vec![1, 2, 4],
        }
    }
}

/// One measured rung of one series: a lane count and the mean (over
/// trials) contention profile the replayed trees saw there.
#[derive(Clone, Debug, PartialEq)]
pub struct LanePoint {
    /// Virtual lanes per physical link in this rung.
    pub lanes: u8,
    /// Mean contention blocks per run (port waits excluded).
    pub blocks: f64,
    /// Mean total blocked time (ms) per run.
    pub blocked_ms: f64,
    /// Mean makespan (ms) per run.
    pub makespan_ms: f64,
    /// Mean per-lane link utilization, lane-index order (`len == lanes`).
    pub lane_utilization: Vec<f64>,
}

/// One (network, algorithm) contention-vs-lanes curve.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneSeries {
    /// Network label (`cube6`, `torus4x3`, `mesh8x8`, `mesh8x8-xy`).
    pub network: String,
    /// Tree algorithm whose workload is replayed.
    pub algorithm: String,
    /// Mean analytic lane demand of each trial's concurrent tree set
    /// ([`min_lanes_for_concurrent`]), cube series only — the
    /// Definition-4 analysis speaks E-cube paths.
    pub analytic_min_lanes: Option<f64>,
    /// The measured ladder, ascending lane count.
    pub points: Vec<LanePoint>,
    /// Smallest rung whose mean block count is exactly zero — the lane
    /// count at which the naive tree matches W-sort's contention-free
    /// row. `None`: the ladder never got there.
    pub lanes_to_zero_contention: Option<u8>,
}

/// The complete sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneSweep {
    /// The configuration that produced it.
    pub config: LaneSweepConfig,
    /// All series: cube, torus, adaptive mesh, XY mesh — four
    /// algorithms each.
    pub series: Vec<LaneSeries>,
}

/// The four replay networks, in series order.
const NETWORKS: [&str; 4] = ["cube6", "torus4x3", "mesh8x8", "mesh8x8-xy"];

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Per-trial measurement: one simulated run, reduced to the artifact's
/// scalars plus the per-lane utilization vector.
struct Sample {
    blocks: f64,
    blocked_ms: f64,
    makespan_ms: f64,
    lane_utilization: Vec<f64>,
}

fn sample<R: hcube::Router>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    scratch: &mut EngineScratch,
) -> Sample {
    let run = Run::new(router, params, workload)
        .scratch(scratch)
        .run()
        .expect("well-formed workload");
    debug_assert_eq!(run.delivered_count(), workload.len());
    Sample {
        blocks: run.stats.blocks as f64,
        blocked_ms: run.stats.blocked_time.as_ms(),
        makespan_ms: run.stats.makespan.as_ms(),
        lane_utilization: run.stats.lane_utilization(),
    }
}

/// Lane rungs a network actually runs: the torus needs an even lane
/// count (two dateline classes), everyone else takes the ladder as-is.
fn rungs_for(network: &str, ladder: &[u8]) -> Vec<u8> {
    if network == "torus4x3" {
        ladder.iter().copied().filter(|l| l % 2 == 0).collect()
    } else {
        ladder.to_vec()
    }
}

/// Runs the full sweep for `cfg`. Deterministic: identical configs give
/// byte-identical JSON. One [`EngineScratch`] serves every run.
#[must_use]
pub fn lane_sweep(cfg: &LaneSweepConfig) -> LaneSweep {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(6);
    let torus = Torus::of(4, 3);
    let mesh = Mesh::of(8, 8);
    let mut scratch = EngineScratch::new();
    let mut series: Vec<LaneSeries> = Vec::new();

    for network in NETWORKS {
        for algo in Algorithm::PAPER {
            let rungs = rungs_for(network, &cfg.lane_ladder);
            // Trees and workloads are drawn per trial and shared across
            // rungs, so a rung ladder is a controlled comparison. The
            // seed depends only on the trial (not the algorithm or
            // network), so every cell replays the same sessions.
            let mut workloads: Vec<Vec<DepMessage>> = Vec::with_capacity(cfg.trials);
            let mut analytic: Vec<f64> = Vec::with_capacity(cfg.trials);
            for trial in 0..cfg.trials {
                let mut rng =
                    StdRng::seed_from_u64(run_seed(cfg.seed, "lane_sweep", "sessions", trial));
                // Distinct concurrent sources (node 0 reserved out of the
                // draw), each with its own destination set.
                let srcs = crate::destsets::random_dests(&mut rng, cube, NodeId(0), cfg.sources);
                let trees: Vec<MulticastTree> = srcs
                    .iter()
                    .map(|&src| {
                        let dests = crate::destsets::random_dests(&mut rng, cube, src, cfg.m);
                        algo.build(cube, Resolution::HighToLow, PortModel::AllPort, src, &dests)
                            .expect("valid multicast instance")
                    })
                    .collect();
                analytic.push(f64::from(min_lanes_for_concurrent(&trees)));
                // Merge the sessions into one workload; dependency
                // indices are tree-local, so offset each batch.
                let mut merged: Vec<DepMessage> = Vec::new();
                for tree in &trees {
                    let base = merged.len();
                    merged.extend(multicast_workload(tree, cfg.bytes).into_iter().map(
                        |mut msg| {
                            for d in &mut msg.deps {
                                *d += base;
                            }
                            msg
                        },
                    ));
                }
                workloads.push(merged);
            }
            let points: Vec<LanePoint> = rungs
                .iter()
                .map(|&lanes| {
                    let samples: Vec<Sample> = workloads
                        .iter()
                        .map(|w| match network {
                            "cube6" => sample(
                                hcube::Ecube::with_lanes(cube, Resolution::HighToLow, lanes),
                                &params,
                                w,
                                &mut scratch,
                            ),
                            "torus4x3" => sample(
                                TorusRouter::with_lane_multiplier(torus, lanes / 2),
                                &params,
                                w,
                                &mut scratch,
                            ),
                            "mesh8x8" => sample(
                                MinimalAdaptive::with_lanes(mesh, lanes),
                                &params,
                                w,
                                &mut scratch,
                            ),
                            "mesh8x8-xy" => {
                                sample(MeshXY::with_lanes(mesh, lanes), &params, w, &mut scratch)
                            }
                            _ => unreachable!("unknown network {network}"),
                        })
                        .collect();
                    let lane_utilization = (0..lanes as usize)
                        .map(|l| {
                            mean(
                                &samples
                                    .iter()
                                    .map(|s| s.lane_utilization[l])
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect();
                    LanePoint {
                        lanes,
                        blocks: mean(&samples.iter().map(|s| s.blocks).collect::<Vec<_>>()),
                        blocked_ms: mean(&samples.iter().map(|s| s.blocked_ms).collect::<Vec<_>>()),
                        makespan_ms: mean(
                            &samples.iter().map(|s| s.makespan_ms).collect::<Vec<_>>(),
                        ),
                        lane_utilization,
                    }
                })
                .collect();
            let lanes_to_zero_contention = points.iter().find(|p| p.blocks == 0.0).map(|p| p.lanes);
            series.push(LaneSeries {
                network: network.into(),
                algorithm: algo.name().into(),
                analytic_min_lanes: (network == "cube6").then(|| mean(&analytic)),
                points,
                lanes_to_zero_contention,
            });
        }
    }

    LaneSweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// Artifact schema
// ----------------------------------------------------------------------

record!(LaneSweepConfig {
    "trials" => trials,
    "sources" => sources,
    "m" => m,
    "bytes" => bytes,
    "seed" => seed,
    "lane_ladder" => lane_ladder,
});

record!(LanePoint {
    "lanes" => lanes,
    "blocks" => blocks,
    "blocked_ms" => blocked_ms,
    "makespan_ms" => makespan_ms,
    "lane_utilization" => lane_utilization,
});

record!(LaneSeries {
    "network" => network,
    "algorithm" => algorithm,
    "analytic_min_lanes" => analytic_min_lanes,
    "lanes_to_zero_contention" => lanes_to_zero_contention,
    "points" => points,
});

record!(LaneSweep { "config" => config, "series" => series });

impl Artifact for LaneSweep {
    const ID: &'static str = "lane_sweep";
    const TITLE: &'static str =
        "Virtual lanes vs concurrent-multicast contention (64-node networks)";

    /// Every utilization vector has one entry per lane of its rung.
    fn check(&self) -> Result<(), String> {
        for s in &self.series {
            for p in &s.points {
                if p.lane_utilization.len() != usize::from(p.lanes) {
                    return Err(format!(
                        "{} {}: lane_utilization has {} entries for {} lanes",
                        s.network,
                        s.algorithm,
                        p.lane_utilization.len(),
                        p.lanes
                    ));
                }
            }
        }
        Ok(())
    }

    fn to_table(&self) -> String {
        let mut out = format!("{}\n", Self::TITLE);
        out.push_str(&format!(
            "trials/cell = {}, {} concurrent sessions, m = {} destinations, payload = {} B, \
             seed = {}, ladder = {:?}\n",
            self.config.trials,
            self.config.sources,
            self.config.m,
            self.config.bytes,
            self.config.seed,
            self.config.lane_ladder
        ));
        for s in &self.series {
            out.push('\n');
            out.push_str(&format!("== {} · {} ==\n", s.network, s.algorithm));
            if let Some(a) = s.analytic_min_lanes {
                out.push_str(&format!(
                    "  analytic lane demand (max per-arc clique, mean of trials): {a:.2}\n"
                ));
            }
            out.push_str("  lanes   blocks   blocked ms   makespan ms   per-lane utilization\n");
            for p in &s.points {
                let util = p
                    .lane_utilization
                    .iter()
                    .map(|u| format!("{u:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "  {:>5}   {:>6.1}   {:>10.4}   {:>11.4}   [{util}]\n",
                    p.lanes, p.blocks, p.blocked_ms, p.makespan_ms
                ));
            }
            match s.lanes_to_zero_contention {
                Some(l) => out.push_str(&format!("  zero contention reached at {l} lane(s)\n")),
                None => out.push_str("  contention persists through the whole ladder\n"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LaneSweepConfig {
        LaneSweepConfig {
            trials: 2,
            sources: 3,
            m: 8,
            bytes: 512,
            seed: 5,
            lane_ladder: vec![1, 2, 4],
        }
    }

    #[test]
    fn sweep_is_deterministic_and_round_trips() {
        let a = lane_sweep(&tiny());
        let b = lane_sweep(&tiny());
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "must regenerate bit-identically"
        );
        assert_eq!(a.series.len(), 16, "4 networks x 4 algorithms");
        let parsed = LaneSweep::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(
            parsed.to_json().unwrap(),
            a.to_json().unwrap(),
            "JSON round-trip"
        );
        assert_eq!(parsed, a);
    }

    #[test]
    fn single_session_wsort_is_contention_free_at_one_lane() {
        // Theorem 6 survives the lane machinery: with one session, the
        // W-sort cube row blocks exactly zero on a single lane and the
        // analytic bound agrees.
        let mut cfg = tiny();
        cfg.sources = 1;
        let sweep = lane_sweep(&cfg);
        let wsort = sweep
            .series
            .iter()
            .find(|s| s.network == "cube6" && s.algorithm == Algorithm::WSort.name())
            .unwrap();
        assert_eq!(wsort.points[0].lanes, 1);
        assert_eq!(
            wsort.points[0].blocks, 0.0,
            "Theorem 6: W-sort all-port is contention-free on one lane"
        );
        assert_eq!(wsort.lanes_to_zero_contention, Some(1));
        assert_eq!(wsort.analytic_min_lanes, Some(1.0));
    }

    #[test]
    fn concurrent_sessions_actually_contend_on_the_cube() {
        // With several independent sources the single-lane cube rows
        // must show real blocking — otherwise the ladder measures
        // nothing — and the analytic bound must ask for more than one
        // lane.
        let sweep = lane_sweep(&tiny());
        let cube: Vec<_> = sweep
            .series
            .iter()
            .filter(|s| s.network == "cube6")
            .collect();
        assert!(
            cube.iter().any(|s| s.points[0].blocks > 0.0),
            "no cube series blocked at one lane"
        );
        assert!(
            cube.iter().all(|s| s.analytic_min_lanes.unwrap() > 1.0),
            "cross-session conflicts must raise the analytic bound"
        );
    }

    #[test]
    fn the_top_rung_never_blocks_more_than_the_bottom() {
        let sweep = lane_sweep(&tiny());
        for s in &sweep.series {
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(
                last.blocks <= first.blocks,
                "{} · {}: {} lanes blocked more than {}",
                s.network,
                s.algorithm,
                last.lanes,
                first.lanes
            );
        }
    }

    #[test]
    fn torus_runs_even_rungs_only() {
        let sweep = lane_sweep(&tiny());
        for s in sweep.series.iter().filter(|s| s.network == "torus4x3") {
            let lanes: Vec<u8> = s.points.iter().map(|p| p.lanes).collect();
            assert_eq!(lanes, vec![2, 4], "{}", s.algorithm);
        }
    }

    #[test]
    fn utilization_vectors_match_lane_counts() {
        let sweep = lane_sweep(&tiny());
        for s in &sweep.series {
            for p in &s.points {
                assert_eq!(p.lane_utilization.len(), p.lanes as usize);
                assert!(p.lane_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
            }
        }
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(LaneSweep::from_json("{}").is_err());
        assert!(LaneSweep::from_json("not json").is_err());
        let wrong_id = r#"{ "id": "traffic_sweep", "config": {}, "series": [] }"#;
        assert!(LaneSweep::from_json(wrong_id).is_err());
    }
}
