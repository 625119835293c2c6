//! The event loop: workload validation, fault wiring, channel
//! acquisition/release, and statistics accounting.
//!
//! The engine is generic over the [`Router`]: every channel it touches
//! is a dense index from the [`ChannelMap`], every coordinate decode
//! goes through the [`Topology`](hcube::Topology) trait, and nothing in
//! here assumes hypercube address arithmetic. The hypercube and the
//! torus run the exact same loop.
//!
//! All mutable run state lives in a borrowed
//! [`EngineScratch`](crate::scratch::EngineScratch): `Engine::new`
//! *resets* the arenas instead of allocating them and computes the
//! workload's routes into the scratch's route buffer, one
//! `(channel, dimension)` pair per hop, which the release path reads
//! back for its busy-time accounting. The fresh-allocation entry points
//! simply pass a brand-new scratch, so both paths execute the same code
//! and produce byte-identical results.

use crate::engine::events::{self, Event};
use crate::engine::outcomes::{NetStats, RunResult, SimError};
use crate::engine::watchdog;
use crate::engine::worm::{DepMessage, FaultCause, MessageResult, MsgState, Outcome};
use crate::faults::FaultPlan;
use crate::network::ChannelMap;
use crate::params::SimParams;
use crate::probe::{BlockedInterval, Probe};
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use hcube::{Dim, NodeId, Router, Topology};

/// Marks the dead and stuck channels of `plan` in `scratch`, whose
/// `dead` flags must be all clear. A directed channel is unusable when
/// its link is dead, its own lane is dead, or either endpoint node is
/// down — the endpoint decided through the topology's neighbor function,
/// never by address arithmetic. A stuck link wedges every lane.
///
/// The pass walks the plan's fault sets instead of probing them once per
/// channel, and skips entries naming no channel of the map (node, port
/// or lane out of range). Channel indexing is dense — every `(v, p)` with
/// `v < nodes` and `p < ports` is a link, and mesh boundary ports are
/// self-loops — so the marks equal the per-channel definition. Only dead
/// nodes need a pass over the links, to find each one's far end.
fn wire_faults<R: Router>(map: &ChannelMap<R>, plan: &FaultPlan, scratch: &mut EngineScratch) {
    let topo = map.topology();
    let nodes = map.nodes();
    let lanes = map.lanes();
    let link = |v: NodeId, p: Dim| {
        ((v.0 as usize) < nodes && p.0 < topo.ports_per_node()).then(|| map.external(v, p))
    };
    for (v, p) in plan.dead_links() {
        if let Some(ch) = link(v, p) {
            scratch.dead[ch..ch + lanes].fill(true);
        }
    }
    for (v, p, lane) in plan.dead_lanes() {
        if let Some(ch) = link(v, p).filter(|_| usize::from(lane) < lanes) {
            scratch.dead[ch + usize::from(lane)] = true;
        }
    }
    for (v, p) in plan.stuck_channels() {
        if let Some(ch) = link(v, p) {
            for lane in ch..ch + lanes {
                scratch.channels.stick(lane);
            }
        }
    }
    if !plan.has_dead_nodes() {
        return;
    }
    let node_dead = &mut scratch.node_dead;
    node_dead.clear();
    node_dead.resize(nodes, false);
    for v in plan.dead_nodes() {
        if let Some(slot) = node_dead.get_mut(v.0 as usize) {
            *slot = true;
            scratch.dead[map.injection(v)] = true;
            scratch.dead[map.consumption(v)] = true;
        }
    }
    for ch in (0..map.externals()).step_by(lanes) {
        let (v, p) = map.external_coords(ch);
        if node_dead[v.0 as usize] || node_dead[topo.neighbor(v, p).0 as usize] {
            scratch.dead[ch..ch + lanes].fill(true);
        }
    }
}

pub(crate) struct Engine<'a, R: Router, P: Probe> {
    map: ChannelMap<R>,
    params: &'a SimParams,
    plan: &'a FaultPlan,
    workload: &'a [DepMessage],
    /// The reusable arenas: event queue, message table, channel table,
    /// dead flags, CPU clocks, cascade stack, and the route buffer.
    scratch: &'a mut EngineScratch,
    stats: NetStats,
    finished: usize,
    last_time: SimTime,
    /// The in-loop observer. With `NoopProbe` every call site
    /// monomorphizes away (static dispatch — see the `probe_overhead`
    /// bench).
    probe: &'a mut P,
}

impl<'a, R: Router, P: Probe> Engine<'a, R, P> {
    pub fn new(
        router: R,
        params: &'a SimParams,
        workload: &'a [DepMessage],
        plan: &'a FaultPlan,
        probe: &'a mut P,
        scratch: &'a mut EngineScratch,
    ) -> Result<Engine<'a, R, P>, SimError> {
        events::check_workload_size(workload.len())?;
        let map = ChannelMap::new(router);

        // Reset the arenas: every buffer returns to its pristine state
        // without giving its allocation back.
        scratch.queue.reset();
        scratch.channels.reset(map.len());
        scratch.dead.clear();
        scratch.dead.resize(map.len(), false);
        scratch.cpu_free.clear();
        scratch.cpu_free.resize(map.nodes(), SimTime::ZERO);
        scratch.finish_stack.clear();
        scratch.routes.clear();
        scratch.msgs.truncate(workload.len());
        for (i, m) in workload.iter().enumerate() {
            if m.src == m.dst {
                return Err(SimError::SelfSend { index: i });
            }
            let route = scratch.routes.push(&map, params.port_model, m.src, m.dst);
            if i < scratch.msgs.len() {
                scratch.msgs[i].reset(route, m.deps.len(), m.min_start);
            } else {
                scratch
                    .msgs
                    .push(MsgState::new(route, m.deps.len(), m.min_start));
            }
        }
        for (i, m) in workload.iter().enumerate() {
            for &d in &m.deps {
                if d >= workload.len() {
                    return Err(SimError::DependencyOutOfRange { index: i, dep: d });
                }
                scratch.msgs[d].dependents.push(i);
            }
        }

        // Deadline-only plans (the open-loop observation window) damage
        // nothing: skip the whole channel-fault wiring pass.
        if plan.has_network_faults() {
            wire_faults(&map, plan, scratch);
        }

        let stats = NetStats {
            dim_busy: vec![SimTime::ZERO; map.dimensions() as usize],
            dim_channels: map.dim_channels(),
            lane_busy: vec![SimTime::ZERO; map.lanes()],
            lane_links: map.links() as u32,
            ..NetStats::default()
        };

        Ok(Engine {
            map,
            params,
            plan,
            workload,
            scratch,
            stats,
            finished: 0,
            last_time: SimTime::ZERO,
            probe,
        })
    }

    /// The `(channel, dimension)` of hop `hop` of message `m`'s route —
    /// the *nominal* channel, always a lane-class representative.
    #[inline]
    fn route_hop(&self, m: usize, hop: usize) -> (usize, u8) {
        self.scratch
            .routes
            .hop(self.scratch.msgs[m].route_start, hop)
    }

    /// The nominal channel of hop `hop` of message `m`'s route.
    #[inline]
    fn route_channel(&self, m: usize, hop: usize) -> usize {
        self.route_hop(m, hop).0
    }

    /// The channel hop `hop` of `m` actually holds. Under adaptive lane
    /// selection (`class_size > 1`) the granted lane may differ from
    /// the route's nominal class floor, so the truth lives in the
    /// per-message `taken` log; otherwise the route is exact and the log
    /// stays empty.
    #[inline]
    fn actual_channel(&self, m: usize, hop: usize) -> usize {
        if self.map.class_size() > 1 {
            self.scratch.msgs[m].taken[hop]
        } else {
            self.route_channel(m, hop)
        }
    }

    /// If `ch` is inside a stall window at `t`, when it reopens.
    fn stalled_until(&self, ch: usize, t: SimTime) -> Option<SimTime> {
        if !self.plan.has_stalls() || self.map.is_virtual(ch) {
            return None;
        }
        let (v, p) = self.map.external_coords(ch);
        self.plan.stalled_until(v, p, t)
    }

    /// Closes an open stall-window park on `m` at `t`, charging the
    /// blocked time that actually elapsed — the full window when the
    /// reopen retry fires, a pro-rated share when an abort cuts the
    /// park short.
    fn settle_stall(&mut self, m: usize, t: SimTime) {
        if let Some((since, port)) = self.scratch.msgs[m].stall.take() {
            let waited = t.saturating_sub(since);
            self.scratch.msgs[m].blocked_time += waited;
            if port {
                self.stats.port_wait_time += waited;
            } else {
                self.stats.blocked_time += waited;
            }
        }
    }

    /// Opens `m`'s blocking episode at `t`, unless one is open: the wait
    /// after a stall park's reopen retry continues the park's episode.
    fn open_wait(&mut self, m: usize, t: SimTime) {
        self.scratch.msgs[m].episode.get_or_insert(t);
    }

    /// Closes `m`'s open blocking episode on hop `hop` at `t` — at a
    /// grant when `granted`, else at an abort — and hands it to the
    /// probe.
    fn close_wait(&mut self, m: usize, hop: usize, t: SimTime, granted: bool) {
        if let Some(from) = self.scratch.msgs[m].episode.take() {
            let iv = BlockedInterval {
                message: m,
                channel: self.route_channel(m, hop),
                hop,
                from,
                until: t,
            };
            self.probe.on_wait_closed(iv, granted);
        }
    }

    /// Marks `m` finished, records stats, and cascades failure to
    /// dependents that now can never be sent.
    fn finish(&mut self, m: usize, t: SimTime, outcome: Outcome) {
        debug_assert!(self.scratch.finish_stack.is_empty());
        self.scratch.finish_stack.push((m, outcome));
        while let Some((i, out)) = self.scratch.finish_stack.pop() {
            if self.scratch.msgs[i].outcome.is_some() {
                continue;
            }
            self.scratch.msgs[i].outcome = Some(out);
            self.scratch.msgs[i].finished_at = t;
            self.finished += 1;
            match out {
                Outcome::Delivered => self.probe.on_delivered(t, i, self.scratch.msgs[i].injected),
                Outcome::Failed(cause) => {
                    self.stats.failed += 1;
                    self.probe.on_fault(t, i, cause);
                }
                Outcome::TimedOut => {
                    self.stats.timed_out += 1;
                    self.probe.on_timeout(t, i);
                }
            }
            if out != Outcome::Delivered {
                // Dependents of a lost message can never start.
                for d in 0..self.scratch.msgs[i].dependents.len() {
                    let dep = self.scratch.msgs[i].dependents[d];
                    self.scratch
                        .finish_stack
                        .push((dep, Outcome::Failed(FaultCause::DependencyFailed)));
                }
            }
        }
    }

    /// Releases `msgs[m]`'s first `count` route channels, handing each
    /// one **directly** to its FIFO-head waiter — the waiter holds the
    /// channel the instant it is released
    /// ([`Channels::handoff`](crate::engine::arbitration::Channels::handoff)),
    /// so a same-time acquisition attempt still sitting in the event
    /// heap can never steal it. Charges per-dimension busy time on the
    /// way.
    fn release_channels(&mut self, m: usize, count: usize, t: SimTime) {
        for hop in 0..count {
            let ch = self.actual_channel(m, hop);
            // Blocked worms park on the lane class's *representative*
            // channel (the nominal route channel); whichever lane of
            // the class frees up serves that queue. With one lane per
            // class the representative is the channel itself.
            let rep = if self.map.is_virtual(ch) {
                ch
            } else {
                self.map.class_rep(ch)
            };
            // A stall window covering the release instant defers the
            // *grant* to the window's reopen; the reservation itself is
            // made now, so nothing else can slip in.
            let grant_t = self.stalled_until(ch, t).unwrap_or(t);
            let (held_since, waiter) = self.scratch.channels.handoff_from(ch, rep, m, grant_t);
            self.probe.on_channel_released(t, m, ch, held_since);
            if !self.map.is_virtual(ch) {
                // The route recorded each hop's dimension: the
                // topology's coordinate decode is too slow for the
                // release path. A granted lane shares its link, and so
                // its dimension, with the nominal channel.
                let d = self.route_hop(m, hop).1 as usize;
                let held = t.saturating_sub(held_since);
                self.stats.dim_busy[d] += held;
                self.stats.lane_busy[self.map.lane_of(ch) as usize] += held;
            }
            if let Some((w, whop)) = waiter {
                debug_assert!(self.scratch.msgs[w].outcome.is_none());
                self.scratch.msgs[w].queued = false;
                let waited = grant_t.saturating_sub(self.scratch.msgs[w].wait_since);
                self.scratch.msgs[w].blocked_time += waited;
                if self.map.is_virtual(ch) || whop == 0 {
                    self.stats.port_wait_time += waited;
                } else {
                    self.stats.blocked_time += waited;
                }
                if self.map.class_size() > 1 {
                    debug_assert_eq!(self.scratch.msgs[w].taken.len(), whop);
                    self.scratch.msgs[w].taken.push(ch);
                }
                self.close_wait(w, whop, grant_t, true);
                self.probe.on_channel_granted(grant_t, w, ch, whop);
                self.advance_after_grant(w, whop, ch, grant_t);
            }
        }
        self.scratch.msgs[m].acquired = 0;
        self.scratch.msgs[m].taken.clear();
    }

    /// Aborts an in-flight (or not-yet-started) message: releases held
    /// channels, leaves any wait queue, settles an open stall park,
    /// closes its blocking episode, finishes with `outcome`.
    fn abort(&mut self, m: usize, t: SimTime, outcome: Outcome) {
        self.settle_stall(m, t);
        let held = self.scratch.msgs[m].acquired;
        if held > 0 {
            self.release_channels(m, held, t);
        }
        // A blocked worm holds hops `0..held` and waits on hop `held`.
        if std::mem::take(&mut self.scratch.msgs[m].queued) {
            let rep = self.route_channel(m, held);
            self.scratch.channels.remove_waiter(rep, m);
        }
        self.close_wait(m, held, t, false);
        self.finish(m, t, outcome);
    }

    pub fn run(&mut self) -> Result<(), SimError> {
        // Everything known before the loop goes on the queue's calendar,
        // so the heap holds only in-flight worms. The plan-wide
        // observation window is one event for the whole run, scheduled
        // before anything else: at its close time it outranks every
        // same-time event (the window is `[0, close)`), and the
        // open-loop hot path stops paying one deadline event per
        // message.
        let roots = self.workload.iter().filter(|m| m.deps.is_empty()).count();
        self.scratch.queue.reserve_initial(roots + 1);
        if let Some(close) = self.plan.default_deadline() {
            self.scratch.queue.push_initial(close, Event::WindowClose);
        }
        // Pre-fail messages with dead endpoints (cascades to dependents).
        if self.plan.has_dead_nodes() {
            for i in 0..self.workload.len() {
                let m = &self.workload[i];
                if self.plan.node_dead(m.src) || self.plan.node_dead(m.dst) {
                    self.finish(i, m.min_start, Outcome::Failed(FaultCause::DeadEndpoint));
                }
            }
        }
        for i in 0..self.workload.len() {
            if self.scratch.msgs[i].outcome.is_none() {
                if self.workload[i].deps.is_empty() {
                    self.scratch
                        .queue
                        .push_initial(self.workload[i].min_start, Event::Eligible(i));
                }
                if let Some(d) = self.plan.message_deadline(i) {
                    self.scratch.queue.push_initial(d, Event::Deadline(i));
                }
            }
        }
        self.scratch.queue.seal();

        while let Some((t, event)) = self.scratch.queue.pop() {
            debug_assert!(t >= self.last_time, "event time ran backwards");
            self.last_time = t;
            match event {
                Event::WindowClose => {
                    self.on_window_close(t);
                    continue;
                }
                Event::Eligible(m)
                | Event::TryAcquire(m, _)
                | Event::Complete(m)
                | Event::Deadline(m) => {
                    if self.scratch.msgs[m].outcome.is_some() {
                        continue; // stale event for an aborted/failed message
                    }
                }
            }
            match event {
                Event::Eligible(m) => self.on_eligible(m, t),
                Event::TryAcquire(m, hop) => self.on_try_acquire(m, hop, t),
                Event::Complete(m) => self.on_complete(m, t),
                Event::Deadline(m) => self.abort(m, t, Outcome::TimedOut),
                Event::WindowClose => unreachable!("handled above"),
            }
        }

        if self.finished == self.workload.len() {
            return Ok(());
        }
        // The run is ending without releasing everything: a reused
        // scratch must sweep its channel table before the next run.
        self.scratch.channels.mark_dirty();
        // Watchdog: the queue drained with unfinished messages.
        let verdict = watchdog::verdict(&self.scratch.msgs, &self.scratch.channels, self.last_time);
        if let SimError::Deadlock {
            at,
            ref holders,
            ref waiters,
        } = verdict
        {
            self.probe.on_watchdog_alarm(at, holders, waiters);
        }
        Err(verdict)
    }

    /// The plan-wide observation window closes: abort every message
    /// still short of delivery, in workload order, unless a per-message
    /// deadline override governs it instead.
    fn on_window_close(&mut self, t: SimTime) {
        for m in 0..self.workload.len() {
            if self.scratch.msgs[m].outcome.is_none() && self.plan.message_deadline(m).is_none() {
                self.abort(m, t, Outcome::TimedOut);
            }
        }
    }

    fn on_eligible(&mut self, m: usize, t: SimTime) {
        self.probe.on_eligible(t, m);
        let src = self.workload[m].src.0 as usize;
        let start = if self.params.cpu_serialized_startup {
            let s = t.max(self.scratch.cpu_free[src]);
            self.scratch.cpu_free[src] = s + self.params.t_send_sw;
            s
        } else {
            t
        };
        let inject = start + self.params.t_send_sw;
        self.scratch.msgs[m].injected = inject;
        self.probe
            .on_injected(inject, m, self.scratch.msgs[m].route_len as usize);
        self.scratch.queue.push(inject, Event::TryAcquire(m, 0));
    }

    /// Post-grant bookkeeping shared by the free-channel acquisition
    /// path and the atomic hand-off path: records route progress and
    /// schedules the next hop (or the tail drain when the route is
    /// complete).
    fn advance_after_grant(&mut self, m: usize, hop: usize, ch: usize, t: SimTime) {
        self.scratch.msgs[m].acquired = hop + 1;
        let hop_cost = if self.map.is_virtual(ch) {
            SimTime::ZERO
        } else {
            self.params.t_hop
        };
        let arrive = t + hop_cost;
        if hop + 1 < self.scratch.msgs[m].route_len as usize {
            self.probe.on_header_advanced(arrive, m, hop + 1);
            self.scratch
                .queue
                .push(arrive, Event::TryAcquire(m, hop + 1));
        } else {
            let drain = arrive + self.params.t_byte * u64::from(self.workload[m].bytes);
            self.scratch.queue.push(drain, Event::Complete(m));
        }
    }

    fn on_try_acquire(&mut self, m: usize, hop: usize, t: SimTime) {
        // A stall-window park ends here (this is its reopen retry):
        // charge the window now that it actually elapsed.
        self.settle_stall(m, t);
        let rep = self.route_channel(m, hop);
        self.probe.on_channel_requested(t, m, rep, hop);
        // Under adaptive lane selection the worm may take any lane of
        // the nominal channel's class window, lowest index first; a
        // single-lane class (every deterministic router) degenerates to
        // the original one-channel protocol with no extra work.
        let window = if self.map.is_virtual(rep) {
            1
        } else {
            self.map.class_size()
        };
        let mut chosen = None;
        let mut any_alive = false;
        for c in rep..rep + window {
            if self.scratch.dead[c] {
                continue;
            }
            any_alive = true;
            if chosen.is_none() && self.scratch.channels.is_free(c) {
                chosen = Some(c);
            }
        }
        if !any_alive {
            // The header hit a dead link — every lane of the class is
            // down: abort-and-discard.
            self.scratch.msgs[m].acquired = hop;
            self.abort(m, t, Outcome::Failed(FaultCause::DeadChannel));
            return;
        }
        if let Some(reopen) = self.stalled_until(rep, t) {
            // Transient stall: the link refuses acquisition until the
            // window closes. Counts as contention blocking; the blocked
            // time is charged when the park ends (reopen or abort), not
            // upfront — see `settle_stall`.
            let port = self.map.is_virtual(rep) || hop == 0;
            if port {
                self.scratch.msgs[m].port_waits += 1;
                self.stats.port_waits += 1;
            } else {
                self.scratch.msgs[m].blocks += 1;
                self.stats.blocks += 1;
            }
            self.scratch.msgs[m].stall = Some((t, port));
            self.open_wait(m, t);
            let depth = self.scratch.channels.queue_len(rep);
            self.probe.on_channel_blocked(t, m, rep, hop, depth);
            self.scratch.queue.push(reopen, Event::TryAcquire(m, hop));
            return;
        }
        if let Some(ch) = chosen {
            self.scratch.channels.acquire(ch, m, t);
            if self.map.class_size() > 1 {
                debug_assert_eq!(self.scratch.msgs[m].taken.len(), hop);
                self.scratch.msgs[m].taken.push(ch);
            }
            self.close_wait(m, hop, t, true);
            self.probe.on_channel_granted(t, m, ch, hop);
            self.advance_after_grant(m, hop, ch, t);
        } else {
            // Every live lane is busy: block in place holding acquired
            // channels, queue FIFO on the class representative.
            // A block at hop 0 holds nothing upstream — it is
            // source-side port serialization (Theorem 3's benign
            // case), not network contention.
            self.scratch.msgs[m].wait_since = t;
            self.scratch.msgs[m].queued = true;
            if self.map.is_virtual(rep) || hop == 0 {
                self.scratch.msgs[m].port_waits += 1;
                self.stats.port_waits += 1;
            } else {
                self.scratch.msgs[m].blocks += 1;
                self.stats.blocks += 1;
            }
            self.open_wait(m, t);
            let depth = self.scratch.channels.enqueue(rep, m, hop);
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u32);
            self.probe.on_channel_blocked(t, m, rep, hop, depth);
        }
    }

    fn on_complete(&mut self, m: usize, t: SimTime) {
        self.probe.on_tail_drained(t, m);
        let held = self.scratch.msgs[m].acquired;
        self.release_channels(m, held, t);
        let delivered = t + self.params.t_recv_sw;
        self.finish(m, delivered, Outcome::Delivered);
        self.stats.makespan = self.stats.makespan.max(delivered);
        let dependents = std::mem::take(&mut self.scratch.msgs[m].dependents);
        for &d in &dependents {
            if self.scratch.msgs[d].outcome.is_some() {
                continue;
            }
            self.scratch.msgs[d].pending_deps -= 1;
            if self.scratch.msgs[d].pending_deps == 0 {
                let at = self.scratch.msgs[d].eligible_at.max(delivered);
                self.scratch.queue.push(at, Event::Eligible(d));
            }
        }
        self.scratch.msgs[m].dependents = dependents;
    }

    pub fn into_result(self) -> RunResult {
        let t_recv = self.params.t_recv_sw;
        let messages = self
            .scratch
            .msgs
            .iter()
            .map(|s| {
                let outcome = s.outcome.expect("every message reached a terminal state");
                let network_done = if outcome.is_delivered() {
                    s.finished_at - t_recv
                } else {
                    s.finished_at
                };
                MessageResult {
                    injected: s.injected,
                    network_done,
                    delivered: s.finished_at,
                    blocked_time: s.blocked_time,
                    blocks: s.blocks,
                    port_waits: s.port_waits,
                    outcome,
                }
            })
            .collect();
        RunResult {
            messages,
            stats: self.stats,
        }
    }
}
