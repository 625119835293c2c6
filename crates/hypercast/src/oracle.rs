//! A symbolic data oracle for collective schedules (extension beyond
//! the paper, after the `compute_expected_data` checks of the Fugaku
//! bine-tree simulator).
//!
//! Timing models tell you a schedule is *fast*; they say nothing about
//! whether it moves the *right data*. The oracle replays any
//! [`CollectiveSchedule`] symbolically: every node's buffer has the
//! schedule's segments, and each segment holds a multiset of
//! contributions — a map from contributing id to how many times its
//! value was combined in. An op either **copies** the sender's segments
//! over the receiver's (broadcast, allgather and scatter data movement)
//! or **combines** them in (reduction and gather data movement, adding
//! contribution counts). Counts, rather than sets, are the point: a
//! schedule that double-combines a contribution still produces the full
//! *set*, but count `2` flags the corruption immediately.
//!
//! Ops execute grouped by step, and every op in a step reads the state
//! as of the end of the *previous* step — a schedule that depends on a
//! payload delivered in its own step is wrong even if the op list
//! happens to be ordered favourably, and the snapshot semantics catch
//! it.
//!
//! Initial state: for the reductions (reduce-scatter, allreduce, reduce,
//! barrier) node `v` holds its own contribution `{v: 1}` in every
//! segment; for allgather and gather, in segment `v` only; for scatter
//! and multicast the root holds block `{s: 1}` in every segment `s`.
//!
//! Rules, each named in the error it returns:
//!
//! * **byte rule** — every op carries `block_bytes` per segment;
//! * **wait rule** — an op waits for (lists among its deps) every op
//!   that delivered one of its segments to its sender at an earlier
//!   step, back to the segment's last copy there. The engine times an op
//!   by its deps alone, so this is what makes it send the data the
//!   replay checks;
//! * no contribution is combined twice, anywhere;
//! * **final state**, one rule per [`Operation`], over every node of the
//!   suite or every destination in the schedule's own list:
//!   - allgather: every node's segment `s` is exactly `{s: 1}`;
//!   - reduce-scatter: node `v`'s segment `v` holds every node's
//!     contribution once;
//!   - allreduce: every segment of every node does;
//!   - reduce: the root's segment holds the root's and every
//!     destination's contribution once;
//!   - barrier: so does the segment of every destination;
//!   - scatter: destination `d` holds its block, segment `d` = `{d: 1}`;
//!   - gather: the root holds every destination's block `{d: 1}`;
//!   - multicast: every destination holds every chunk `c`, `{c: 1}`.

use crate::collectives::{CollectiveKind, CollectiveSchedule, Operation, Transfer};
use std::collections::BTreeMap;
use std::iter;

/// One buffer segment: contributing id → number of times its value has
/// been combined in. A correct final segment has every count at 1.
type Segment = BTreeMap<u32, u64>;

fn one(contributor: u32) -> Segment {
    BTreeMap::from([(contributor, 1)])
}

/// Replays `sched` symbolically and checks that every node ends with
/// exactly the blocks its [`Operation`] promises.
///
/// # Errors
/// A human-readable description of the first violation: a non-causal
/// dependency, an out-of-range node or segment, an op breaking the byte
/// or the wait rule, a missing contribution, or a double-combined one.
pub fn verify_collective(sched: &CollectiveSchedule) -> Result<(), String> {
    let (n, total, ops) = (sched.nodes as usize, sched.segments, &sched.ops);
    let name = sched.kind.name();
    let (root, dests) = (sched.root.0, &sched.dests);
    if let Some(v) = iter::once(&sched.root)
        .chain(dests)
        .find(|v| v.0 as usize >= n)
    {
        return Err(format!("participant {v} outside the {n}-node machine"));
    }

    // Sanity of the DAG annotations, and the byte rule, before touching
    // any data.
    for (i, op) in ops.iter().enumerate() {
        if op.src.0 as usize >= n || op.dst.0 as usize >= n {
            return Err(format!("op {i}: node outside the {n}-node machine"));
        }
        if let Some(s) = op.segments.indices(total).find(|&s| s >= total) {
            return Err(format!(
                "op {i}: segment {s} outside the {total}-segment buffer"
            ));
        }
        if op.step == 0 || op.step > sched.steps {
            return Err(format!(
                "op {i}: step {} outside 1..={}",
                op.step, sched.steps
            ));
        }
        for &d in &op.deps {
            if d >= ops.len() {
                return Err(format!("op {i}: dependency {d} out of range"));
            }
            if ops[d].step >= op.step {
                return Err(format!(
                    "op {i} (step {}) depends on op {d} (step {}): not causal",
                    op.step, ops[d].step
                ));
            }
            if ops[d].dst != op.src {
                return Err(format!(
                    "op {i}: dependency {d} delivers to {} but the op sends from {}",
                    ops[d].dst, op.src
                ));
            }
        }
        let carried = op.segments.indices(total).count() as u64;
        let want = carried * u64::from(sched.block_bytes);
        if u64::from(op.bytes) != want {
            return Err(format!(
                "byte rule: op {i} carries {} bytes, want {carried} segments of {} = {want}",
                op.bytes, sched.block_bytes
            ));
        }
    }

    let mut state: Vec<Vec<Segment>> = (0..n as u32)
        .map(|v| {
            (0..total)
                .map(|s| match sched.kind {
                    Operation::Suite(CollectiveKind::Allgather) | Operation::Gather if s == v => {
                        one(v)
                    }
                    Operation::Scatter | Operation::Multicast if v == root => one(s),
                    Operation::Suite(CollectiveKind::ReduceScatter | CollectiveKind::Allreduce)
                    | Operation::Reduce
                    | Operation::Barrier => one(v),
                    _ => Segment::new(),
                })
                .collect()
        })
        .collect();

    // Execute grouped by step; payloads snapshot the state as of the end
    // of the previous step. Per node and segment, `arrivals` lists the
    // ops that delivered it since its last copy there; `waited[d] == i`
    // marks op `d` as a dependency of op `i`.
    let mut by_step: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        by_step.entry(op.step).or_default().push(i);
    }
    let mut arrivals: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); total as usize]; n];
    let mut waited = vec![usize::MAX; ops.len()];
    for group in by_step.values() {
        for &i in group {
            let op = &ops[i];
            for &d in &op.deps {
                waited[d] = i;
            }
            let src = op.src.0 as usize;
            for s in op.segments.indices(total) {
                let early = arrivals[src][s as usize].iter().find(|&&j| waited[j] != i);
                if let Some(&j) = early {
                    return Err(format!(
                        "wait rule: op {i} sends segment {s} from node {src} without waiting \
                         for op {j}, which delivered it at step {}",
                        ops[j].step
                    ));
                }
            }
        }
        let payloads: Vec<(usize, Vec<(usize, Segment)>)> = group
            .iter()
            .map(|&i| {
                let op = &ops[i];
                let src = &state[op.src.0 as usize];
                let segs = op.segments.indices(total);
                (
                    i,
                    segs.map(|s| (s as usize, src[s as usize].clone()))
                        .collect(),
                )
            })
            .collect();
        for (i, segs) in payloads {
            let op = &ops[i];
            let dst = op.dst.0 as usize;
            for (s, payload) in segs {
                match op.transfer {
                    Transfer::Copy => {
                        state[dst][s] = payload;
                        arrivals[dst][s].clear();
                    }
                    Transfer::Combine => {
                        for (contrib, count) in payload {
                            *state[dst][s].entry(contrib).or_insert(0) += count;
                        }
                    }
                }
                arrivals[dst][s].push(i);
            }
        }
    }

    // No contribution may ever be combined twice, whatever the kind.
    for (v, segs) in state.iter().enumerate() {
        for (s, seg) in segs.iter().enumerate() {
            if let Some((c, count)) = seg.iter().find(|&(_, &count)| count > 1) {
                return Err(format!(
                    "{name}: node {v} segment {s}: contribution of {c} combined {count} times"
                ));
            }
        }
    }

    // The final-state rule: what segment `s` of node `v` must hold, where
    // the operation promises anything.
    let mut is_dest = vec![false; n];
    for d in dests {
        is_dest[d.0 as usize] = true;
    }
    let dest = |x: u32| is_dest.get(x as usize) == Some(&true);
    let everyone: Segment = (0..n as u32)
        .filter(|&v| matches!(sched.kind, Operation::Suite(_)) || v == root || dest(v))
        .map(|c| (c, 1))
        .collect();
    let ones: Vec<Segment> = (0..n.max(total as usize) as u32).map(one).collect();
    let want = |v: u32, s: u32| match sched.kind {
        Operation::Suite(CollectiveKind::Allgather) => Some(&ones[s as usize]),
        Operation::Suite(CollectiveKind::ReduceScatter) => (s == v).then_some(&everyone),
        Operation::Suite(CollectiveKind::Allreduce) => Some(&everyone),
        Operation::Reduce => (v == root).then_some(&everyone),
        Operation::Barrier => (v == root || dest(v)).then_some(&everyone),
        Operation::Scatter => (s == v && dest(v)).then_some(&ones[v as usize]),
        Operation::Gather => (v == root && dest(s)).then_some(&ones[s as usize]),
        Operation::Multicast => dest(v).then_some(&ones[s as usize]),
    };
    for v in 0..n as u32 {
        for s in 0..total {
            let got = &state[v as usize][s as usize];
            match want(v, s) {
                Some(want) if got != want => {
                    return Err(format!(
                        "{name}: node {v} segment {s} ended as {got:?}, want {want:?}"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{
        allgather, allgather_separate, allreduce, allreduce_separate, barrier, broadcast,
        chunked_multicast, gather, reduce, reduce_scatter, reduce_scatter_separate, scatter,
        CollectiveOp, Segments, TreeFamily,
    };
    use crate::{Algorithm, MulticastTree, PortModel};
    use hcube::{Cube, NodeId, Resolution, Torus};

    fn wsort_broadcast(n: u8) -> MulticastTree {
        let (res, port) = (Resolution::HighToLow, PortModel::AllPort);
        broadcast(Algorithm::WSort, Cube::of(n), res, port, NodeId(0)).unwrap()
    }

    #[test]
    fn every_family_passes_on_the_cube() {
        let cube = Cube::of(4);
        for family in TreeFamily::SWEEP {
            for resolution in [Resolution::HighToLow, Resolution::LowToHigh] {
                let ag = allgather(family, cube, resolution, PortModel::AllPort, 64, None).unwrap();
                verify_collective(&ag).unwrap_or_else(|e| panic!("{} ag: {e}", family.name()));
                let rs =
                    reduce_scatter(family, cube, resolution, PortModel::AllPort, 64, None).unwrap();
                verify_collective(&rs).unwrap_or_else(|e| panic!("{} rs: {e}", family.name()));
                let ar = allreduce(
                    family,
                    cube,
                    resolution,
                    PortModel::AllPort,
                    NodeId(3),
                    64,
                    None,
                )
                .unwrap();
                verify_collective(&ar).unwrap_or_else(|e| panic!("{} ar: {e}", family.name()));
            }
        }
    }

    #[test]
    fn separate_addressing_passes_on_the_torus() {
        let torus = Torus::of(4, 2);
        verify_collective(&allgather_separate(&torus, 64).unwrap()).unwrap();
        verify_collective(&reduce_scatter_separate(&torus, 64).unwrap()).unwrap();
        verify_collective(&allreduce_separate(&torus, NodeId(5), 64).unwrap()).unwrap();
    }

    #[test]
    fn double_combining_is_caught() {
        let torus = Torus::of(2, 2);
        let mut rs = reduce_scatter_separate(&torus, 64).unwrap();
        // Duplicate one combining op: the set of contributions is still
        // complete, but the count check must flag it.
        let dup = rs.ops[0].clone();
        rs.ops.push(dup);
        let err = verify_collective(&rs).unwrap_err();
        assert!(err.contains("combined 2 times"), "{err}");
    }

    #[test]
    fn missing_delivery_is_caught() {
        let torus = Torus::of(2, 2);
        let mut ag = allgather_separate(&torus, 64).unwrap();
        ag.ops.pop();
        let err = verify_collective(&ag).unwrap_err();
        assert!(err.contains("allgather"), "{err}");
    }

    #[test]
    fn same_step_forwarding_is_caught() {
        // A chain 0→1→2 squeezed into one step: node 1 forwards a block
        // it has not yet received under snapshot semantics.
        let torus = Torus::of(3, 1);
        let mut ag = allgather_separate(&torus, 64).unwrap();
        ag.ops
            .retain(|op| !(op.segments == Segments::One(0) && op.dst == NodeId(2)));
        ag.ops.push(CollectiveOp {
            src: NodeId(1),
            dst: NodeId(2),
            step: 1,
            segments: Segments::One(0),
            transfer: Transfer::Copy,
            deps: Vec::new(),
            bytes: 64,
        });
        let err = verify_collective(&ag).unwrap_err();
        assert!(err.contains("segment 0"), "{err}");
    }

    #[test]
    fn non_causal_dependency_is_caught() {
        let torus = Torus::of(2, 2);
        let mut ar = allreduce_separate(&torus, NodeId(0), 64).unwrap();
        // Point a gather-phase op at a broadcast-phase (later-step) op.
        let last = ar.ops.len() - 1;
        ar.ops[0].deps = vec![last];
        let err = verify_collective(&ar).unwrap_err();
        assert!(err.contains("not causal"), "{err}");
    }

    #[test]
    fn existing_scatter_and_gather_pass_the_oracle() {
        let dests: Vec<NodeId> = (1..32).map(NodeId).collect();
        for algo in Algorithm::ALL {
            let (res, port) = (Resolution::HighToLow, PortModel::AllPort);
            let tree = algo
                .build(Cube::of(5), res, port, NodeId(0), &dests)
                .unwrap();
            for sched in [
                scatter(&tree, 128),
                gather(&tree, 128),
                reduce(&tree, 128),
                barrier(&tree, 16),
                chunked_multicast(&tree, 4096, 3),
            ] {
                let sched = sched.unwrap();
                verify_collective(&sched)
                    .unwrap_or_else(|e| panic!("{algo} {}: {e}", sched.kind.name()));
            }
        }
    }

    #[test]
    fn dropped_scatter_op_is_caught() {
        let mut s = scatter(&wsort_broadcast(3), 128).unwrap();
        // The last op (a leaf edge, at the last step) delivers one block.
        let lost = s.ops.pop().unwrap();
        let err = verify_collective(&s).unwrap_err();
        assert!(err.starts_with("scatter: "), "{err}");
        assert!(err.contains(&format!("node {}", lost.dst.0)), "{err}");
    }

    #[test]
    fn duplicated_gather_op_is_caught() {
        let mut g = gather(&wsort_broadcast(3), 128).unwrap();
        let into_root = g.ops.iter().position(|op| op.dst == NodeId(0)).unwrap();
        let dup = g.ops[into_root].clone();
        g.ops.push(dup);
        let err = verify_collective(&g).unwrap_err();
        assert!(err.starts_with("gather: "), "{err}");
        assert!(err.contains("combined 2 times"), "{err}");
    }

    #[test]
    fn corrupted_scatter_bytes_are_caught() {
        let tree = wsort_broadcast(3);
        let mut s = scatter(&tree, 128).unwrap();
        s.ops[0].bytes += 1;
        let err = verify_collective(&s).unwrap_err();
        assert!(err.starts_with("byte rule: op 0 "), "{err}");
        // The rule covers every operation's ops, one byte off either way.
        for mut sched in [
            reduce(&tree, 64).unwrap(),
            chunked_multicast(&tree, 1000, 4).unwrap(),
            allgather_separate(&Torus::of(2, 2), 64).unwrap(),
        ] {
            let last = sched.ops.len() - 1;
            sched.ops[last].bytes -= 1;
            let err = verify_collective(&sched).unwrap_err();
            assert!(err.starts_with(&format!("byte rule: op {last} ")), "{err}");
        }
    }

    #[test]
    fn barrier_release_that_does_not_wait_is_caught() {
        let tree = wsort_broadcast(3);
        let mut b = barrier(&tree, 16).unwrap();
        // The root releases without waiting for the reduction: the steps
        // still say "after", but the engine times ops by their deps.
        let release = tree.unicasts.len();
        assert_eq!(b.ops[release].src, NodeId(0));
        b.ops[release].deps.clear();
        let err = verify_collective(&b).unwrap_err();
        assert!(
            err.starts_with(&format!("wait rule: op {release} ")),
            "{err}"
        );
    }
}
