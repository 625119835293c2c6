//! In-loop event instrumentation: the static-dispatch [`Probe`] trait
//! and its sinks.
//!
//! The paper's contention theory (Definitions 3–4, Theorem 3) is about
//! *where and when worms block*. [`crate::trace::ChannelTrace`]
//! reconstructs an occupancy *envelope* after the fact; a [`Probe`]
//! instead observes every semantic event **at its source inside the
//! event loop**: injection, channel request/grant/block/release, header
//! advance, tail drain, faults, timeouts, and watchdog alarms.
//!
//! The trait is threaded through the engine by *static dispatch*: the
//! event loop is generic over `P: Probe`, so the default [`NoopProbe`]
//! monomorphizes to nothing — the uninstrumented entry points compile to
//! the exact same loop as before (guarded by the `probe_overhead`
//! criterion bench).
//!
//! Blocking episodes have one source: the engine. It tracks every wait
//! to charge [`NetStats`](crate::NetStats), and it hands each contiguous
//! wait to [`Probe::on_wait_closed`] exactly once, so no sink keeps a
//! per-message wait table of its own. Two sinks ship with the crate:
//!
//! * [`NoopProbe`] — the zero-cost default;
//! * [`EventRecorder`] — a bounded ring buffer of timestamped
//!   [`ProbeEvent`]s plus *exact* (unbounded, never-dropped) accounting:
//!   per-channel hold and blocked time, hold/block intervals, queue
//!   depths, injection→delivery latencies, and watchdog alarms; it
//!   exports Chrome/Perfetto trace JSON
//!   ([`EventRecorder::to_chrome_trace`]) and folds into a
//!   [`MetricsRegistry`] ([`EventRecorder::metrics`]).

use crate::engine::FaultCause;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::network::ChannelMap;
use crate::time::SimTime;
use crate::trace::Occupancy;
use hcube::Router;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// An observer of the engine's semantic events, called synchronously
/// from inside the event loop.
///
/// All methods default to no-ops, so a sink implements only what it
/// needs. The engine is generic over `P: Probe` (static dispatch): with
/// [`NoopProbe`] every call site monomorphizes away.
///
/// Timestamps are simulated time; `msg` is the index of the message in
/// the workload; `ch` is a dense channel index of the run's
/// [`ChannelMap`] (externals first, then virtual consumption/injection
/// channels — see [`crate::network`]).
pub trait Probe {
    /// All dependencies of `msg` are delivered; send processing starts.
    #[inline]
    fn on_eligible(&mut self, _t: SimTime, _msg: usize) {}

    /// `msg`'s worm enters the network (software startup paid);
    /// `route_len` is the number of channels it will acquire.
    #[inline]
    fn on_injected(&mut self, _t: SimTime, _msg: usize, _route_len: usize) {}

    /// `msg`'s header requests channel `ch` (hop `hop` of its route).
    #[inline]
    fn on_channel_requested(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {}

    /// The request was granted; the worm now holds `ch`.
    #[inline]
    fn on_channel_granted(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {}

    /// The request found `ch` busy (or stalled by a fault window): the
    /// worm blocks in place holding everything acquired so far. `depth`
    /// is the channel's FIFO depth after the worm queued; a worm parked
    /// by a stall window does not queue, and `depth` is the FIFO's
    /// current length.
    #[inline]
    fn on_channel_blocked(
        &mut self,
        _t: SimTime,
        _msg: usize,
        _ch: usize,
        _hop: usize,
        _depth: usize,
    ) {
    }

    /// A blocking episode ended: `iv.message` waited for `iv.channel`
    /// (the channel its block named) over `[iv.from, iv.until]`.
    /// Called once per contiguous wait — at the grant (`granted`, right
    /// before [`on_channel_granted`](Probe::on_channel_granted)) or when
    /// an abort cuts the wait short (`!granted`, right before
    /// [`on_fault`](Probe::on_fault) or [`on_timeout`](Probe::on_timeout)).
    /// A stall-window park and the same-channel wait that follows its
    /// reopen retry form one episode, starting at the first block. A
    /// wait the run ends in (a deadlock) never closes.
    #[inline]
    fn on_wait_closed(&mut self, _iv: BlockedInterval, _granted: bool) {}

    /// `ch`, held by `msg` since `held_since`, was released (tail drain
    /// or abort).
    #[inline]
    fn on_channel_released(&mut self, _t: SimTime, _msg: usize, _ch: usize, _held_since: SimTime) {}

    /// `msg`'s header advanced to hop `hop` of its route.
    #[inline]
    fn on_header_advanced(&mut self, _t: SimTime, _msg: usize, _hop: usize) {}

    /// `msg`'s tail drained at the destination router.
    #[inline]
    fn on_tail_drained(&mut self, _t: SimTime, _msg: usize) {}

    /// `msg` was delivered to the destination processor at `t`
    /// (`injected` is its injection time, for latency accounting).
    #[inline]
    fn on_delivered(&mut self, _t: SimTime, _msg: usize, _injected: SimTime) {}

    /// A fault terminated `msg` (dead endpoint/channel or a failed
    /// dependency).
    #[inline]
    fn on_fault(&mut self, _t: SimTime, _msg: usize, _cause: FaultCause) {}

    /// `msg` missed its deadline and aborted.
    #[inline]
    fn on_timeout(&mut self, _t: SimTime, _msg: usize) {}

    /// The event queue drained with worms still parked on channels: a
    /// wormhole deadlock. `holders` hold channels the `waiters` wait on
    /// (the same sets reported in
    /// [`SimError::Deadlock`](crate::engine::SimError::Deadlock)).
    #[inline]
    fn on_watchdog_alarm(&mut self, _t: SimTime, _holders: &[usize], _waiters: &[usize]) {}
}

/// The default sink: observes nothing, monomorphizes away entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// One recorded event of the engine's taxonomy (the ring-buffer form;
/// watchdog alarms additionally land in
/// [`EventRecorder::alarms`] with their full holder/waiter sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings match the `Probe` methods
pub enum ProbeEvent {
    /// Dependencies satisfied; send processing starts.
    Eligible { msg: usize },
    /// Worm entered the network.
    Injected { msg: usize, route_len: usize },
    /// Header requested a channel.
    ChannelRequested { msg: usize, ch: usize, hop: usize },
    /// Request granted.
    ChannelGranted { msg: usize, ch: usize, hop: usize },
    /// Request blocked (FIFO depth after queuing; the FIFO's current
    /// length for a stall-window park).
    ChannelBlocked {
        msg: usize,
        ch: usize,
        hop: usize,
        depth: usize,
    },
    /// Channel released at tail drain or abort.
    ChannelReleased {
        msg: usize,
        ch: usize,
        held_since: SimTime,
    },
    /// Header advanced to the next hop.
    HeaderAdvanced { msg: usize, hop: usize },
    /// Tail drained at the destination router.
    TailDrained { msg: usize },
    /// Payload delivered to the destination processor.
    Delivered { msg: usize },
    /// Fault terminated the message.
    Fault { msg: usize, cause: FaultCause },
    /// Deadline abort.
    TimedOut { msg: usize },
    /// Watchdog deadlock alarm (set sizes only; see
    /// [`EventRecorder::alarms`]).
    WatchdogAlarm { holders: usize, waiters: usize },
}

/// A watchdog deadlock alarm with its full holder/waiter sets, exactly
/// as reported in [`SimError::Deadlock`](crate::engine::SimError).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogAlarm {
    /// Simulated time of the last event before the wedge.
    pub at: SimTime,
    /// Messages holding a channel somebody waits on.
    pub holders: Vec<usize>,
    /// Messages parked in channel FIFOs.
    pub waiters: Vec<usize>,
}

/// One exact blocking episode: `message` waited for `channel` (hop
/// `hop` of its route) over `[from, until]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedInterval {
    /// Index of the waiting message.
    pub message: usize,
    /// The channel waited for.
    pub channel: usize,
    /// Hop index of the blocked acquisition (0 = source-side
    /// serialization, Theorem 3's benign case).
    pub hop: usize,
    /// When the wait began.
    pub from: SimTime,
    /// When the wait ended (grant or abort).
    pub until: SimTime,
}

/// Default ring-buffer capacity of an [`EventRecorder`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A recording sink: a bounded ring buffer of timestamped events plus
/// exact per-channel occupancy/blocked-time/depth accounting.
///
/// The ring is bounded (oldest events drop first, counted in
/// [`dropped`](EventRecorder::dropped)); the *accounting* — occupancy
/// intervals, blocked intervals (as the engine closes them), per-channel
/// totals, latencies, alarms, and the event counts
/// [`metrics`](EventRecorder::metrics) folds — is exact and never
/// dropped, which is what the envelope-soundness and
/// utilization-exactness tests rely on.
#[derive(Clone, Debug)]
pub struct EventRecorder {
    capacity: usize,
    events: VecDeque<(SimTime, ProbeEvent)>,
    dropped: u64,
    total_events: u64,
    end_time: SimTime,
    // --- exact accounting, indexed by dense channel (resized on demand)
    channel_busy_ns: Vec<u64>,
    channel_blocked_ns: Vec<u64>,
    channel_blocked_hop0_ns: Vec<u64>,
    max_depth: Vec<u32>,
    // --- exact interval logs
    occupancies: Vec<Occupancy>,
    blocked: Vec<BlockedInterval>,
    latencies: Vec<(usize, SimTime)>,
    alarms: Vec<WatchdogAlarm>,
    // --- exact event counts the ring cannot give once it drops
    injected: u64,
    grants: u64,
    blocks: u64,
    faults: u64,
    timeouts: u64,
    /// FIFO depth at each block.
    queue_depth: Histogram,
}

impl Default for EventRecorder {
    fn default() -> EventRecorder {
        EventRecorder::new()
    }
}

fn grow<T: Clone + Default>(v: &mut Vec<T>, idx: usize) {
    if idx >= v.len() {
        v.resize(idx + 1, T::default());
    }
}

impl EventRecorder {
    /// A recorder with the [`DEFAULT_RING_CAPACITY`].
    #[must_use]
    pub fn new() -> EventRecorder {
        EventRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` events (the exact
    /// accounting is unaffected by the bound).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> EventRecorder {
        EventRecorder {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.clamp(1, 1 << 12)),
            dropped: 0,
            total_events: 0,
            end_time: SimTime::ZERO,
            channel_busy_ns: Vec::new(),
            channel_blocked_ns: Vec::new(),
            channel_blocked_hop0_ns: Vec::new(),
            max_depth: Vec::new(),
            occupancies: Vec::new(),
            blocked: Vec::new(),
            latencies: Vec::new(),
            alarms: Vec::new(),
            injected: 0,
            grants: 0,
            blocks: 0,
            faults: 0,
            timeouts: 0,
            queue_depth: Histogram::default(),
        }
    }

    fn push(&mut self, t: SimTime, e: ProbeEvent) {
        self.total_events += 1;
        self.end_time = self.end_time.max(t);
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((t, e));
    }

    /// The ring-buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, ProbeEvent)> {
        self.events.iter()
    }

    /// Events evicted from the ring (never affects the exact accounting).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events observed, including evicted ones.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Timestamp of the latest observed event.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Exact hold (busy) time of channel `ch`, in nanoseconds.
    #[must_use]
    pub fn busy_ns(&self, ch: usize) -> u64 {
        self.channel_busy_ns.get(ch).copied().unwrap_or(0)
    }

    /// Exact total time worms spent blocked waiting for `ch` (all hops),
    /// in nanoseconds.
    #[must_use]
    pub fn blocked_ns(&self, ch: usize) -> u64 {
        self.channel_blocked_ns.get(ch).copied().unwrap_or(0)
    }

    /// Exact blocked time on `ch` excluding hop-0 episodes — genuine
    /// in-network contention, net of the source-side port serialization
    /// Theorem 3 classifies as benign.
    #[must_use]
    pub fn contention_blocked_ns(&self, ch: usize) -> u64 {
        self.blocked_ns(ch) - self.channel_blocked_hop0_ns.get(ch).copied().unwrap_or(0)
    }

    /// Deepest FIFO queue ever observed on `ch`.
    #[must_use]
    pub fn max_queue_depth(&self, ch: usize) -> u32 {
        self.max_depth.get(ch).copied().unwrap_or(0)
    }

    /// The exact channel-holding intervals, in release order.
    #[must_use]
    pub fn occupancies(&self) -> &[Occupancy] {
        &self.occupancies
    }

    /// The exact blocking episodes, in the order the engine closed them.
    #[must_use]
    pub fn blocked_intervals(&self) -> &[BlockedInterval] {
        &self.blocked
    }

    /// Injection→delivery latency per delivered message.
    #[must_use]
    pub fn latencies(&self) -> &[(usize, SimTime)] {
        &self.latencies
    }

    /// Watchdog deadlock alarms, with full holder/waiter sets.
    #[must_use]
    pub fn alarms(&self) -> &[WatchdogAlarm] {
        &self.alarms
    }

    /// Folds the recording into a [`MetricsRegistry`] (the vocabulary is
    /// listed in [`crate::metrics`]). A counter or histogram appears only
    /// once its first event was observed; `makespan_ns` always appears,
    /// `events_per_sim_ms` once simulated time has passed.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, n) in [
            ("events_total", self.total_events),
            ("injected_total", self.injected),
            ("channel_grants_total", self.grants),
            ("channel_blocks_total", self.blocks),
            ("faults_total", self.faults),
            ("timeouts_total", self.timeouts),
            ("watchdog_alarms_total", self.alarms.len() as u64),
            ("delivered_total", self.latencies.len() as u64),
        ] {
            if n > 0 {
                reg.inc(name, n);
            }
        }
        if !self.blocked.is_empty() {
            reg.inc("blocked_ns_total", self.channel_blocked_ns.iter().sum());
        }
        if !self.occupancies.is_empty() {
            reg.inc("busy_ns_total", self.channel_busy_ns.iter().sum());
        }
        for (_, latency) in &self.latencies {
            reg.observe("latency_ns", latency.as_ns());
        }
        for b in &self.blocked {
            reg.observe("blocked_episode_ns", b.until.saturating_sub(b.from).as_ns());
        }
        if self.blocks > 0 {
            reg.set_histogram("queue_depth", self.queue_depth.clone());
            let deepest = self.max_depth.iter().max().copied().unwrap_or(0);
            reg.set_gauge("max_queue_depth", f64::from(deepest));
        }
        reg.set_gauge("makespan_ns", self.end_time.as_ns() as f64);
        let ms = self.end_time.as_ms();
        if ms > 0.0 {
            reg.set_gauge("events_per_sim_ms", self.total_events as f64 / ms);
        }
        reg
    }

    /// Serializes the recording as Chrome trace JSON (the Chrome/Perfetto
    /// "JSON trace event" format): one track (`tid`) per channel on a
    /// "channels (held)" process for occupancy slices, a parallel
    /// "channels (blocked)" process for blocking slices, and instant
    /// events for faults, timeouts, and watchdog alarms. Timestamps are
    /// microseconds (the format's unit); durations preserve the
    /// simulator's nanosecond resolution as fractions. Loadable in
    /// `ui.perfetto.dev` and `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_trace<R: Router>(&self, map: &ChannelMap<R>) -> String {
        self.to_chrome_trace_with(&|ch| map.label(ch))
    }

    /// [`to_chrome_trace`](EventRecorder::to_chrome_trace) with a custom
    /// channel-label function.
    #[must_use]
    pub fn to_chrome_trace_with(&self, label: &dyn Fn(usize) -> String) -> String {
        let mut out = String::from(
            "{\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\"generator\": \"wormsim\"},\n  \"traceEvents\": [\n",
        );
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    ");
            out.push_str(&s);
        };

        // Process + thread name metadata.
        emit(
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"channels (held)\"}}".into(),
            &mut out,
        );
        emit(
            "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"channels (blocked)\"}}".into(),
            &mut out,
        );
        let mut used: Vec<usize> = self
            .occupancies
            .iter()
            .map(|o| o.channel)
            .chain(self.blocked.iter().map(|b| b.channel))
            .collect();
        used.sort_unstable();
        used.dedup();
        for &ch in &used {
            let name = json_escape(&label(ch));
            for pid in [1, 2] {
                emit(
                    format!(
                        "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {ch}, \"name\": \"thread_name\", \"args\": {{\"name\": \"{name}\"}}}}"
                    ),
                    &mut out,
                );
            }
        }
        for o in &self.occupancies {
            emit(
                format!(
                    "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"name\": \"msg {}\", \"args\": {{\"message\": {}}}}}",
                    o.channel,
                    us(o.from),
                    us_dur(o.from, o.until),
                    o.message,
                    o.message
                ),
                &mut out,
            );
        }
        for b in &self.blocked {
            emit(
                format!(
                    "{{\"ph\": \"X\", \"pid\": 2, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"name\": \"blocked msg {}\", \"args\": {{\"message\": {}, \"hop\": {}}}}}",
                    b.channel,
                    us(b.from),
                    us_dur(b.from, b.until),
                    b.message,
                    b.message,
                    b.hop
                ),
                &mut out,
            );
        }
        // Instant events: faults, timeouts, alarms (from the ring; exact
        // fault sets are small, and the alarms list is authoritative).
        for &(t, e) in &self.events {
            match e {
                ProbeEvent::Fault { msg, cause } => emit(
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {}, \"s\": \"g\", \"name\": \"fault msg {} ({:?})\"}}",
                        us(t),
                        msg,
                        cause
                    ),
                    &mut out,
                ),
                ProbeEvent::TimedOut { msg } => emit(
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {}, \"s\": \"g\", \"name\": \"timeout msg {}\"}}",
                        us(t),
                        msg
                    ),
                    &mut out,
                ),
                _ => {}
            }
        }
        for a in &self.alarms {
            emit(
                format!(
                    "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {}, \"s\": \"g\", \"name\": \"watchdog alarm: {} holder(s), {} waiter(s)\"}}",
                    us(a.at),
                    a.holders.len(),
                    a.waiters.len()
                ),
                &mut out,
            );
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// Nanoseconds → the Chrome trace format's microsecond unit, fraction
/// preserved, formatted for JSON.
fn us(t: SimTime) -> String {
    format_us(t.as_ns())
}

/// Duration in microseconds; Perfetto drops zero-duration slices, so
/// clamp to 1 ns.
fn us_dur(from: SimTime, until: SimTime) -> String {
    format_us(until.saturating_sub(from).as_ns().max(1))
}

fn format_us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let mut s = format!("{whole}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

/// Escapes a string for inclusion inside a JSON string literal
/// (quotes, backslashes, and control characters). Shared by the Chrome
/// trace and metrics exporters here, by the telemetry exporters in the
/// traffic crate and by `mcast serve`'s tag and error strings — the
/// build environment is offline, so there is no serde to lean on.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Probe for EventRecorder {
    fn on_eligible(&mut self, t: SimTime, msg: usize) {
        self.push(t, ProbeEvent::Eligible { msg });
    }

    fn on_injected(&mut self, t: SimTime, msg: usize, route_len: usize) {
        self.injected += 1;
        self.push(t, ProbeEvent::Injected { msg, route_len });
    }

    fn on_channel_requested(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize) {
        self.push(t, ProbeEvent::ChannelRequested { msg, ch, hop });
    }

    fn on_channel_granted(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize) {
        self.grants += 1;
        self.push(t, ProbeEvent::ChannelGranted { msg, ch, hop });
    }

    fn on_channel_blocked(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize, depth: usize) {
        self.blocks += 1;
        self.queue_depth.observe(depth as u64);
        grow(&mut self.max_depth, ch);
        self.max_depth[ch] = self.max_depth[ch].max(depth as u32);
        self.push(
            t,
            ProbeEvent::ChannelBlocked {
                msg,
                ch,
                hop,
                depth,
            },
        );
    }

    fn on_wait_closed(&mut self, iv: BlockedInterval, _granted: bool) {
        let waited = iv.until.saturating_sub(iv.from).as_ns();
        grow(&mut self.channel_blocked_ns, iv.channel);
        self.channel_blocked_ns[iv.channel] += waited;
        if iv.hop == 0 {
            grow(&mut self.channel_blocked_hop0_ns, iv.channel);
            self.channel_blocked_hop0_ns[iv.channel] += waited;
        }
        self.blocked.push(iv);
    }

    fn on_channel_released(&mut self, t: SimTime, msg: usize, ch: usize, held_since: SimTime) {
        grow(&mut self.channel_busy_ns, ch);
        self.channel_busy_ns[ch] += t.saturating_sub(held_since).as_ns();
        self.occupancies.push(Occupancy {
            message: msg,
            channel: ch,
            from: held_since,
            until: t,
        });
        self.push(
            t,
            ProbeEvent::ChannelReleased {
                msg,
                ch,
                held_since,
            },
        );
    }

    fn on_header_advanced(&mut self, t: SimTime, msg: usize, hop: usize) {
        self.push(t, ProbeEvent::HeaderAdvanced { msg, hop });
    }

    fn on_tail_drained(&mut self, t: SimTime, msg: usize) {
        self.push(t, ProbeEvent::TailDrained { msg });
    }

    fn on_delivered(&mut self, t: SimTime, msg: usize, injected: SimTime) {
        self.latencies.push((msg, t.saturating_sub(injected)));
        self.push(t, ProbeEvent::Delivered { msg });
    }

    fn on_fault(&mut self, t: SimTime, msg: usize, cause: FaultCause) {
        self.faults += 1;
        self.push(t, ProbeEvent::Fault { msg, cause });
    }

    fn on_timeout(&mut self, t: SimTime, msg: usize) {
        self.timeouts += 1;
        self.push(t, ProbeEvent::TimedOut { msg });
    }

    fn on_watchdog_alarm(&mut self, t: SimTime, holders: &[usize], waiters: &[usize]) {
        self.push(
            t,
            ProbeEvent::WatchdogAlarm {
                holders: holders.len(),
                waiters: waiters.len(),
            },
        );
        self.alarms.push(WatchdogAlarm {
            at: t,
            holders: holders.to_vec(),
            waiters: waiters.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest_but_keeps_exact_accounting() {
        let mut r = EventRecorder::with_capacity(4);
        for i in 0..10u64 {
            r.on_channel_granted(SimTime::from_ns(i), 0, 3, 0);
            r.on_channel_released(SimTime::from_ns(i + 1), 0, 3, SimTime::from_ns(i));
        }
        assert_eq!(r.events().count(), 4);
        assert_eq!(r.total_events(), 20);
        assert_eq!(r.dropped(), 16);
        // Exact accounting saw all 10 holds of 1 ns each.
        assert_eq!(r.busy_ns(3), 10);
        assert_eq!(r.occupancies().len(), 10);
    }

    #[test]
    fn blocked_interval_spans_block_to_grant() {
        use crate::{DepMessage, FaultPlan, Run, SimParams};
        use hcube::{Cube, Dim, Ecube, NodeId, Resolution};
        // Two worms share one channel that a stall window closes until
        // `reopen`. The first parks and is granted at the reopen; the
        // second parks too, finds the channel taken at the reopen and
        // queues behind it — one episode from its park to its grant.
        let reopen = SimTime::from_ms(5);
        let mut plan = FaultPlan::none();
        plan.stall(NodeId(0), Dim(0), SimTime::ZERO, reopen);
        let msg = DepMessage {
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1024,
            deps: vec![],
            min_start: SimTime::ZERO,
        };
        let workload = [msg.clone(), msg];
        let params = SimParams::ncube2(hypercast::PortModel::AllPort);
        let mut r = EventRecorder::new();
        let run = Run::new(
            Ecube::new(Cube::of(1), Resolution::HighToLow),
            &params,
            &workload,
        )
        .faults(&plan)
        .probe(&mut r)
        .run()
        .unwrap();
        let [a, b] = [run.messages[0], run.messages[1]];
        let iv = |message, from, until| BlockedInterval {
            message,
            channel: 0,
            hop: 0,
            from,
            until,
        };
        assert_eq!(
            r.blocked_intervals(),
            &[iv(0, a.injected, reopen), iv(1, b.injected, a.network_done)]
        );
        assert_eq!(r.blocked_ns(0), (a.blocked_time + b.blocked_time).as_ns());
        assert_eq!(r.max_queue_depth(0), 1);
    }

    #[test]
    fn hop0_blocking_is_excluded_from_contention() {
        let mut r = EventRecorder::new();
        let iv = |message, hop, from, until| BlockedInterval {
            message,
            channel: 9,
            hop,
            from: SimTime::from_ns(from),
            until: SimTime::from_ns(until),
        };
        r.on_wait_closed(iv(0, 0, 0, 10), true);
        r.on_wait_closed(iv(1, 2, 20, 25), true);
        assert_eq!(r.blocked_ns(9), 15);
        assert_eq!(r.contention_blocked_ns(9), 5);
    }

    #[test]
    fn chrome_trace_is_emitted_for_empty_recordings() {
        let r = EventRecorder::new();
        let s = r.to_chrome_trace_with(&|ch| format!("ch{ch}"));
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("process_name"));
    }

    #[test]
    fn microsecond_formatting_preserves_ns_fractions() {
        assert_eq!(format_us(1_000), "1");
        assert_eq!(format_us(1_500), "1.5");
        assert_eq!(format_us(1_001), "1.001");
        assert_eq!(format_us(999), "0.999");
        assert_eq!(format_us(0), "0");
    }
}
