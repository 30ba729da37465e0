//! Tracing from outside the engine layer: a [`WalkEngine`] wrapper that
//! times every call into the wrapped engine's public session API, and a
//! sink wrapper that separates emission from the engine's own work.
//!
//! Everything is recorded in memory (single-threaded: the scheduler
//! thread owns the engines) and written out when the run ends.

use std::cell::RefCell;
use std::time::Instant;

use lightrw::walker::{BatchProgress, QuerySet, VertexId, WalkEngine, WalkSession, WalkSink};

/// One recorded span: `name` covered `[start_ns, end_ns)` on the run
/// clock; `child_ns` of it was spent in child work (the sink, for an
/// advance), so self time is the difference.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The session (engine spans) or job (client spans) it belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub child_ns: u64,
}

/// Per-session aggregates of an engine trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTrace {
    /// Queries in the session's query set.
    pub queries: usize,
    /// Steps the query set requested (its program caps).
    pub requested_steps: u64,
    pub start_session_ns: u64,
    pub advances: u64,
    /// Wall time inside `advance`, sink included.
    pub advance_ns: u64,
    /// Part of `advance_ns` spent inside the sink.
    pub sink_ns: u64,
    pub steps: u64,
    pub paths: u64,
    /// `hand-offs=N` from the session's final diagnostics, when the
    /// engine reports one (the sharded engine).
    pub handoffs: Option<u64>,
}

/// The in-memory trace store shared by every [`TracedEngine`] of a pool.
pub struct EngineLog {
    epoch: Instant,
    inner: RefCell<LogData>,
}

#[derive(Default)]
struct LogData {
    sessions: Vec<SessionTrace>,
    spans: Vec<Span>,
}

impl EngineLog {
    /// An empty log whose span clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            inner: RefCell::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every session recorded so far.
    pub fn sessions(&self) -> Vec<SessionTrace> {
        self.inner.borrow().sessions.clone()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// A [`WalkEngine`] that forwards to `inner` and records
/// `engine.start_session` and `engine.advance` spans into `log`.
pub struct TracedEngine<'e> {
    inner: &'e dyn WalkEngine,
    log: &'e EngineLog,
}

impl<'e> TracedEngine<'e> {
    pub fn new(inner: &'e dyn WalkEngine, log: &'e EngineLog) -> Self {
        Self { inner, log }
    }
}

impl WalkEngine for TracedEngine<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's> {
        let t0 = Instant::now();
        let session = self.inner.start_session(queries);
        let t1 = Instant::now();
        let mut data = self.log.inner.borrow_mut();
        let id = data.sessions.len();
        data.sessions.push(SessionTrace {
            queries: queries.len(),
            requested_steps: queries.total_steps(),
            start_session_ns: (t1 - t0).as_nanos() as u64,
            ..SessionTrace::default()
        });
        data.spans.push(Span {
            name: "engine.start_session",
            request: id as u64,
            start_ns: self.log.ns(t0),
            end_ns: self.log.ns(t1),
            child_ns: 0,
        });
        Box::new(TracedSession {
            inner: session,
            log: self.log,
            id,
        })
    }

    fn graph_images(&self) -> u64 {
        self.inner.graph_images()
    }
}

struct TracedSession<'s> {
    inner: Box<dyn WalkSession + 's>,
    log: &'s EngineLog,
    id: usize,
}

/// Times every `emit` into the wrapped sink.
struct TimedSink<'a> {
    inner: &'a mut dyn WalkSink,
    ns: u64,
    paths: u64,
}

impl WalkSink for TimedSink<'_> {
    fn emit(&mut self, query_id: u32, path: &[VertexId]) {
        let t = Instant::now();
        self.inner.emit(query_id, path);
        self.ns += t.elapsed().as_nanos() as u64;
        self.paths += 1;
    }
}

impl TracedSession<'_> {
    fn record(&self, t0: Instant, t1: Instant, sink: &TimedSink<'_>, p: BatchProgress) {
        let mut data = self.log.inner.borrow_mut();
        let s = &mut data.sessions[self.id];
        s.advances += 1;
        s.advance_ns += (t1 - t0).as_nanos() as u64;
        s.sink_ns += sink.ns;
        s.steps += p.steps;
        s.paths += sink.paths;
        if p.finished {
            s.handoffs = self.inner.diagnostics().and_then(|d| handoffs(&d));
        }
        data.spans.push(Span {
            name: "engine.advance",
            request: self.id as u64,
            start_ns: self.log.ns(t0),
            end_ns: self.log.ns(t1),
            child_ns: sink.ns,
        });
    }
}

impl WalkSession for TracedSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let mut timed = TimedSink {
            inner: sink,
            ns: 0,
            paths: 0,
        };
        let t0 = Instant::now();
        let p = self.inner.advance(max_steps, &mut timed);
        self.record(t0, Instant::now(), &timed, p);
        p
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        let mut timed = TimedSink {
            inner: sink,
            ns: 0,
            paths: 0,
        };
        let t0 = Instant::now();
        let p = self.inner.cancel(&mut timed);
        self.record(t0, Instant::now(), &timed, p);
        p
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn steps_done(&self) -> u64 {
        self.inner.steps_done()
    }

    fn paths_completed(&self) -> usize {
        self.inner.paths_completed()
    }

    fn model_seconds(&self) -> Option<f64> {
        self.inner.model_seconds()
    }

    fn diagnostics(&self) -> Option<String> {
        self.inner.diagnostics()
    }
}

/// The `hand-offs=N` field of a sharded session's diagnostics.
pub fn handoffs(diagnostics: &str) -> Option<u64> {
    diagnostics
        .split([' ', ','])
        .find_map(|kv| kv.strip_prefix("hand-offs="))
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw::graph::generators;
    use lightrw::graph::ShardStrategy;
    use lightrw::walker::{Node2Vec, SamplerKind, StaticWeighted, WalkEngineExt, WalkProgram};
    use lightrw::Backend;

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Cpu {
                threads: 2,
                sampler: SamplerKind::InverseTransform,
            },
            Backend::Sharded {
                shards: 2,
                strategy: ShardStrategy::Range,
                sampler: SamplerKind::InverseTransform,
                flush_budget: 64,
                shard_threads: 2,
            },
        ]
    }

    #[test]
    fn traced_engine_yields_bit_identical_paths() {
        let g = generators::rmat_dataset(10, 3);
        let n2v = Node2Vec::paper_params();
        let apps: [&dyn lightrw::walker::WalkApp; 2] = [&n2v, &StaticWeighted];
        for backend in backends() {
            for app in apps {
                for program in [WalkProgram::fixed(20), WalkProgram::ppr(0.15, 20)] {
                    let queries = QuerySet::n_queries(&g, 300, 20, 11).with_program(program);
                    // Small batches so the wrapper sees many advances.
                    let bare = backend.build(&g, app, 99);
                    let mut want = lightrw::walker::WalkResults::new();
                    bare.stream_into(&queries, 64, &mut want);

                    let inner = backend.build(&g, app, 99);
                    let log = EngineLog::new(Instant::now());
                    let traced = TracedEngine::new(inner.as_ref(), &log);
                    let mut got = lightrw::walker::WalkResults::new();
                    traced.stream_into(&queries, 64, &mut got);

                    let want: Vec<&[VertexId]> = want.iter().collect();
                    let got: Vec<&[VertexId]> = got.iter().collect();
                    assert_eq!(want, got, "{backend:?}");
                    let s = &log.sessions()[0];
                    assert_eq!(s.paths, 300);
                    assert!(s.advances > 1 && s.sink_ns <= s.advance_ns);
                    let sharded = matches!(backend, Backend::Sharded { .. });
                    assert_eq!(s.handoffs.is_some(), sharded);
                }
            }
        }
    }

    #[test]
    fn parses_sharded_handoffs() {
        let d = "k=2 strategy=walk threads=2 pinned=2 hand-offs=1234 flushes=9 transfer-bytes=1";
        assert_eq!(handoffs(d), Some(1234));
        assert_eq!(handoffs("2 worker lanes, 2 pinned"), None);
    }
}
