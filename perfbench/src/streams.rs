//! Seeded request streams for the two `mcast serve` workloads.
//!
//! Every stream is drawn from a fixed *pool*: a list of cells (one
//! request shape: op, topology, algorithm, load, destination-set size)
//! times [`REPLICAS`] replicas that differ only in their random content
//! (destination sets, traffic seeds). The pool never depends on the
//! benchmark seed, so the daemon's response to every pool entry can be
//! recorded once and committed (`perfbench/refs/`). The seed orders
//! each cell's replicas, fills the cell's slots by cycling through that
//! order (so a cell with fewer slots than replicas leaves some out, and
//! one with more repeats some), and then shuffles the whole stream.
//! Every seed therefore sends the same mix of request shapes with
//! nearly the same contents, which keeps the work per run steady, while
//! no two seeds send the same stream.

/// The four algorithms the paper compares, by their protocol names.
pub const PAPER_ALGOS: [&str; 4] = ["ucube", "maxport", "combine", "wsort"];

/// Replicas per pool cell.
pub const REPLICAS: usize = 16;

/// A small, fast, seedable generator (SplitMix64). The streams must
/// not depend on any crate the benchmark measures.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The network a request runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// A binary `n`-cube.
    Cube(u8),
    /// A `k`-ary `n`-cube torus (separate addressing only).
    Torus(u16, u8),
}

impl Net {
    fn nodes(self) -> usize {
        match self {
            Net::Cube(n) => 1 << n,
            Net::Torus(k, n) => usize::from(k).pow(u32::from(n)),
        }
    }
}

/// Destinations of a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dests {
    /// `random: m` — the daemon draws m destinations per session.
    Random(usize),
    /// `dests: [...]` — one fixed destination set (source 0).
    Fixed(Vec<u32>),
}

/// What a request asks the daemon to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Build one tree and replay it on an idle network.
    Multicast,
    /// Open-loop traffic: `sessions` arrivals at `load` sessions/ms.
    Traffic {
        load: f64,
        sessions: usize,
        seed: u64,
    },
    /// Open-loop traffic under link and node churn.
    Chaos {
        load: f64,
        sessions: usize,
        seed: u64,
        mtbf_ms: f64,
        mttr_ms: f64,
    },
}

/// One `mcast serve` request, with every field the line carries.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The operation and its load parameters.
    pub op: Op,
    /// The network.
    pub net: Net,
    /// The tree algorithm's protocol name (`separate` on the torus).
    pub algo: &'static str,
    /// The destinations.
    pub dests: Dests,
}

impl Request {
    /// The request as one protocol line (no newline). No `workers`
    /// field: every request runs on the daemon's single executor.
    #[must_use]
    pub fn line(&self, id: u64) -> String {
        let op = match self.op {
            Op::Multicast => "multicast",
            Op::Traffic { .. } => "traffic",
            Op::Chaos { .. } => "chaos",
        };
        let mut s = format!("{{\"id\":{id},\"op\":\"{op}\"");
        match self.net {
            Net::Cube(n) => s.push_str(&format!(",\"n\":{n},\"algo\":\"{}\"", self.algo)),
            Net::Torus(k, n) => {
                s.push_str(&format!(",\"topology\":\"torus\",\"arity\":{k},\"n\":{n}"))
            }
        }
        match &self.op {
            Op::Multicast => {}
            Op::Traffic {
                load,
                sessions,
                seed,
            } => s.push_str(&format!(
                ",\"load\":{load},\"sessions\":{sessions},\"seed\":{seed}"
            )),
            Op::Chaos {
                load,
                sessions,
                seed,
                mtbf_ms,
                mttr_ms,
            } => s.push_str(&format!(
                ",\"load\":{load},\"sessions\":{sessions},\"seed\":{seed},\
                 \"mtbf_ms\":{mtbf_ms},\"mttr_ms\":{mttr_ms}"
            )),
        }
        match &self.dests {
            Dests::Random(m) => s.push_str(&format!(",\"random\":{m}")),
            Dests::Fixed(d) => {
                let list: Vec<String> = d.iter().map(u32::to_string).collect();
                s.push_str(&format!(",\"dests\":[{}]", list.join(",")));
            }
        }
        s.push('}');
        s
    }
}

/// `m` distinct destinations in an `nodes`-node network, never node 0
/// (the source), in draw order.
fn draw_dests(rng: &mut Rng, nodes: usize, m: usize) -> Vec<u32> {
    let mut pool: Vec<u32> = (1..nodes as u32).collect();
    for i in 0..m {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(m);
    pool
}

fn shuffle(rng: &mut Rng, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Makes replica `r` of a cell from an RNG keyed by cell and replica.
type Make = Box<dyn Fn(&mut Rng, usize) -> Request>;

/// One request shape and how many stream slots it fills.
struct Cell {
    per_stream: usize,
    make: Make,
}

fn cell(per_stream: usize, make: impl Fn(&mut Rng, usize) -> Request + 'static) -> Cell {
    Cell {
        per_stream,
        make: Box::new(make),
    }
}

/// The cells of `serve_traffic`: small idle multicasts on 6-, 8- and
/// 10-cubes, cache-cold random-destination traffic on the 8-cube below
/// and above saturation, cache-hot fixed-destination traffic on the
/// 6-cube, and separate-addressing traffic on a 4-ary 3-cube torus.
fn traffic_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (n, ms) in [
        (6u8, [4usize, 16, 48]),
        (8, [8, 64, 200]),
        (10, [16, 128, 256]),
    ] {
        for m in ms {
            for algo in PAPER_ALGOS {
                cells.push(cell(33, move |rng, _| Request {
                    op: Op::Multicast,
                    net: Net::Cube(n),
                    algo,
                    dests: Dests::Fixed(draw_dests(rng, 1 << n, m)),
                }));
            }
        }
    }
    for load in [0.5, 1.0, 2.0, 4.0, 8.0] {
        for algo in PAPER_ALGOS {
            cells.push(cell(5, move |_, r| Request {
                op: Op::Traffic {
                    load,
                    sessions: 100,
                    seed: r as u64 + 1,
                },
                net: Net::Cube(8),
                algo,
                dests: Dests::Random(16),
            }));
        }
    }
    for load in [1.0, 2.0] {
        for algo in PAPER_ALGOS {
            cells.push(cell(13, move |rng, r| {
                let m = 5 + rng.below(4);
                Request {
                    op: Op::Traffic {
                        load,
                        sessions: 200,
                        seed: r as u64 + 1,
                    },
                    net: Net::Cube(6),
                    algo,
                    dests: Dests::Fixed(draw_dests(rng, 64, m)),
                }
            }));
        }
    }
    for load in [1.0, 2.0, 4.0] {
        cells.push(cell(34, move |_, r| Request {
            op: Op::Traffic {
                load,
                sessions: 100,
                seed: r as u64 + 1,
            },
            net: Net::Torus(4, 3),
            algo: "separate",
            dests: Dests::Random(8),
        }));
    }
    cells
}

/// The cells of `serve_chaos`: churn at an MTBF ladder across the four
/// paper algorithms on the 6-cube, and separate addressing on the torus.
fn chaos_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // Five MTBF levels, so that the median request falls inside one
    // level's latency band rather than on the edge between two.
    for mtbf_ms in [20.0, 50.0, 100.0, 200.0, 500.0] {
        let chaos = move |r: usize| Op::Chaos {
            load: 2.0,
            sessions: 20,
            seed: r as u64 + 1,
            mtbf_ms,
            mttr_ms: 2.0,
        };
        for algo in PAPER_ALGOS {
            cells.push(cell(15, move |_, r| Request {
                op: chaos(r),
                net: Net::Cube(6),
                algo,
                dests: Dests::Random(8),
            }));
        }
        cells.push(cell(15, move |_, r| Request {
            op: chaos(r),
            net: Net::Torus(4, 3),
            algo: "separate",
            dests: Dests::Random(8),
        }));
    }
    cells
}

/// A serve workload's pool and slot counts.
pub struct Pool {
    /// `requests[cell * REPLICAS + replica]`.
    pub requests: Vec<Request>,
    per_stream: Vec<usize>,
}

impl Pool {
    /// The pool of a serve workload, or `None` for another name.
    #[must_use]
    pub fn of(workload: &str) -> Option<Pool> {
        let cells = match workload {
            "serve_traffic" => traffic_cells(),
            "serve_chaos" => chaos_cells(),
            _ => return None,
        };
        let mut requests = Vec::with_capacity(cells.len() * REPLICAS);
        for (c, cell) in cells.iter().enumerate() {
            for r in 0..REPLICAS {
                let mut rng = Rng::new(((c as u64) << 32) | r as u64);
                let req = (cell.make)(&mut rng, r);
                let m = match &req.dests {
                    Dests::Random(m) => *m,
                    Dests::Fixed(d) => d.len(),
                };
                debug_assert!(
                    m < req.net.nodes(),
                    "a destination set must fit the network"
                );
                requests.push(req);
            }
        }
        Some(Pool {
            requests,
            per_stream: cells.iter().map(|c| c.per_stream).collect(),
        })
    }

    /// The stream for `seed`, as pool indices in sending order.
    #[must_use]
    pub fn stream(&self, seed: u64) -> Vec<usize> {
        let mut rng = Rng::new(seed.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5eed);
        let mut out = Vec::new();
        for (c, &slots) in self.per_stream.iter().enumerate() {
            let mut replicas: Vec<usize> = (0..REPLICAS).collect();
            shuffle(&mut rng, &mut replicas);
            out.extend((0..slots).map(|j| c * REPLICAS + replicas[j % REPLICAS]));
        }
        shuffle(&mut rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let pool = Pool::of("serve_traffic").expect("a serve workload");
        assert_eq!(pool.stream(3), pool.stream(3));
        assert_ne!(pool.stream(3), pool.stream(4));
        assert!(
            pool.stream(3).len() >= 1000,
            "p99 needs at least 1000 requests"
        );
    }

    #[test]
    fn every_seed_sends_the_same_mix_of_cells() {
        let pool = Pool::of("serve_chaos").expect("a serve workload");
        let cells = |seed| {
            let mut c: Vec<usize> = pool.stream(seed).iter().map(|i| i / REPLICAS).collect();
            c.sort_unstable();
            c
        };
        assert_eq!(cells(1), cells(2));
    }

    #[test]
    fn lines_carry_no_workers_field() {
        for w in ["serve_traffic", "serve_chaos"] {
            let pool = Pool::of(w).expect("a serve workload");
            assert!(pool.requests.iter().all(|r| !r.line(1).contains("workers")));
        }
    }
}
