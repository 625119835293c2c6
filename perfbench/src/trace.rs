//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] that is off records nothing and never reads the clock,
//! so the same replay code serves the traced pass and the untraced pass
//! it is compared with. Spans are kept in memory and written out once,
//! when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The span kinds. Layer spans are named after the module they call
/// into; `Run`, `Call` and `Request` are the benchmark's own frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One whole pass over the workload's fixed work.
    Run,
    /// One call into a `workloads::figures` entry point.
    Call,
    /// One serve request, from its line to its response line.
    Request,
    /// `Algorithm::build` for U-cube.
    BuildUCube,
    /// `Algorithm::build` for Maxport.
    BuildMaxport,
    /// `Algorithm::build` for Combine.
    BuildCombine,
    /// `Algorithm::build` for W-sort.
    BuildWSort,
    /// `weighted_sort` on a relative chain.
    WeightedSort,
    /// An idle-network replay of one tree.
    EngineIdle,
    /// A windowed replay of an assembled traffic run.
    EngineLoaded,
    /// `assemble_cube_sessions` / `assemble_separate_sessions_on`.
    Assemble,
    /// `run_chaos_cube` / `run_chaos_separate_on`.
    Chaos,
    /// `workloads::json::parse` of a request line.
    JsonParse,
    /// A `workloads::serve` report formatter.
    JsonEmit,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 14] = [
        Kind::Run,
        Kind::Call,
        Kind::Request,
        Kind::BuildUCube,
        Kind::BuildMaxport,
        Kind::BuildCombine,
        Kind::BuildWSort,
        Kind::WeightedSort,
        Kind::EngineIdle,
        Kind::EngineLoaded,
        Kind::Assemble,
        Kind::Chaos,
        Kind::JsonParse,
        Kind::JsonEmit,
    ];

    /// The span name written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Call => "workloads.figures.call",
            Kind::Request => "workloads.serve.request",
            Kind::BuildUCube => "hypercast.algorithms.ucube",
            Kind::BuildMaxport => "hypercast.algorithms.maxport",
            Kind::BuildCombine => "hypercast.algorithms.combine",
            Kind::BuildWSort => "hypercast.algorithms.wsort",
            Kind::WeightedSort => "hypercast.algorithms.weighted_sort",
            Kind::EngineIdle => "wormsim.engine.idle",
            Kind::EngineLoaded => "wormsim.engine.loaded",
            Kind::Assemble => "traffic.engine.assemble",
            Kind::Chaos => "traffic.chaos",
            Kind::JsonParse => "workloads.json.parse",
            Kind::JsonEmit => "workloads.json.emit",
        }
    }
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// The request (or figure call) the span belongs to.
    pub req: u32,
    /// Index of the enclosing span in the same pass, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Units of work the call did (flit-hops, bytes, sessions, epochs;
    /// see each kind's use), or 0.
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Book {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Records spans, or nothing when off.
pub struct Tracer {
    epoch: Option<Instant>,
    book: Mutex<Book>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn on() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            book: Mutex::new(Book {
                spans: Vec::with_capacity(1 << 18),
                open: Vec::with_capacity(16),
            }),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            book: Mutex::new(Book::default()),
        }
    }

    /// Opens a span; it closes when the guard drops. Spans nest in
    /// open order, so callers open them from one thread at a time.
    pub fn span(&self, kind: Kind, req: u32) -> Guard<'_> {
        let Some(epoch) = self.epoch else {
            return Guard {
                tracer: self,
                index: None,
                work: 0,
            };
        };
        let mut book = self.book.lock().expect("a span holder panicked");
        let parent = book.open.last().copied().unwrap_or(ROOT);
        let index = book.spans.len() as u32;
        let start_ns = epoch.elapsed().as_nanos() as u64;
        book.spans.push(Span {
            kind,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        book.open.push(index);
        Guard {
            tracer: self,
            index: Some(index),
            work: 0,
        }
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        let mut book = self.book.lock().expect("a span holder panicked");
        assert!(book.open.is_empty(), "spans taken while one is open");
        std::mem::take(&mut book.spans)
    }
}

/// An open span.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    index: Option<u32>,
    work: u64,
}

impl Guard<'_> {
    /// Adds `units` to the span's work count.
    pub fn work(&mut self, units: u64) {
        self.work += units;
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(epoch)) = (self.index, self.tracer.epoch) else {
            return;
        };
        let end_ns = epoch.elapsed().as_nanos() as u64;
        // A poisoned lock means a span holder panicked; the run is
        // already failing, and a panic in drop would abort it.
        if let Ok(mut book) = self.tracer.book.lock() {
            book.open.pop();
            let span = &mut book.spans[index as usize];
            span.end_ns = end_ns;
            span.work = self.work;
        }
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run one after another on one thread, so
/// the time they cover is the sum of their durations.
#[must_use]
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.ns());
        }
    }
    out
}

/// The spans as JSON, one span per line:
/// `{"name","req","parent","start_ns","end_ns","work"}`, parents as
/// indices into the list.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}{}",
            s.kind.name(),
            s.req,
            s.start_ns,
            s.end_ns,
            s.work,
            if i + 1 < spans.len() { ",\n" } else { "\n" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::on();
        {
            let _run = t.span(Kind::Run, 0);
            let _req = t.span(Kind::Request, 7);
            {
                let mut g = t.span(Kind::JsonParse, 7);
                g.work(12);
            }
            let _emit = t.span(Kind::JsonEmit, 7);
        }
        let spans = t.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].parent, spans[2].work), (1, 12));
        assert_eq!(spans[3].parent, 1);
        let own = self_ns(&spans);
        assert_eq!(own[1], spans[1].ns() - spans[2].ns() - spans[3].ns());
        assert!(own.iter().sum::<u64>() <= spans[0].ns());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        drop(t.span(Kind::Run, 0));
        assert!(t.take().is_empty());
    }
}
