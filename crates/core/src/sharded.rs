//! Sharded walk execution: one engine lane per graph partition, walkers
//! migrating at shard boundaries through bounded hand-off queues
//! (DESIGN.md §11), run by one or more **shard executors** that overlap
//! hand-off delivery with compute (DESIGN.md §12).
//!
//! [`ShardedEngine`] runs a [`lightrw_graph::ShardedGraph`] — built by
//! [`lightrw_graph::partition_graph`] (see `lightrw_graph::partition`
//! for the placement strategies, including the walk-aware
//! `ShardStrategy::Walk`) or loaded from a packed sharded file
//! ([`lightrw_graph::load_packed_sharded`]) — behind the ordinary
//! [`WalkSession`] contract. Each shard owns a step lane with its own
//! [`HotStepper`] and run queue; a walker whose step lands on a **ghost**
//! vertex (owned by another shard) is serialized into a hand-off record
//! and held in a per-destination outbox until the outbox reaches the
//! flush budget or the executor runs out of local work.
//!
//! One execution path serves every shard count and thread count. Shard
//! `s` belongs to executor `s % threads`; each executor absorbs arrivals,
//! sweeps its lanes, flushes its outboxes (local batches deliver in
//! place, remote ones travel over a channel), and blocks on its inbox
//! only when out of work. A quiescence protocol ends the advance: an
//! atomic count of walkers still runnable in this advance, and whoever
//! retires or parks the last one broadcasts `Quiesce`. `shard_threads ==
//! 1` runs the single executor on the calling thread, unpinned and not
//! spawned; otherwise each executor is a scoped thread pinned via
//! `lightrw_baseline::affinity`. Lanes persist across advances: a lane
//! that spends its per-advance budget keeps its remaining walkers
//! (*parked*) for the next advance, and only retired walkers' paths go
//! back to the session thread, which emits them as they stream in, so
//! the non-`Send` [`WalkSink`] never crosses a thread.
//!
//! The three contracts that make all of this safe:
//!
//! - **RNG streams travel with the walker.** Every query starts on its
//!   [`query_stream`] (a pure function of the engine seed and the query
//!   index, shared with the reference and CPU engines); the lane's
//!   stepper imports the stream before stepping the walker and exports
//!   it when the walker leaves, so a walk's draws never depend on shard
//!   count, flush budget, thread count or batch schedule — every setting
//!   samples the [`lightrw_walker::ReferenceEngine`] walks exactly.
//! - **Second-order hand-offs carry the previous row.** Node2Vec weights
//!   read the *previous* vertex's adjacency, which the destination shard
//!   does not store. The record ships the row and the lane arms it as a
//!   prev-row override ([`HotStepper::arm_prev_row`]) for the arrival
//!   step.
//! - **Emission is exactly-once and id-ordered** via the shared
//!   [`InOrderEmitter`] watermark, identical to the CPU engine's lanes.
//!
//! Sessions count hand-offs, flushes and the bytes the hand-off records
//! would occupy on a link (a fixed header plus four bytes per shipped
//! prev-row entry) and report them through `diagnostics()`. Hand-off and
//! byte totals are schedule-independent (walks are deterministic); flush
//! counts depend on batch coalescing.
//!
//! An executor that panics broadcasts an abort to its peers as it
//! unwinds, so they return instead of waiting on its hand-offs, and the
//! session re-raises the panic on the calling thread.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

use lightrw_baseline::affinity;
use lightrw_graph::{partition_graph, Graph, ShardStrategy, ShardedGraph, VertexId};
use lightrw_walker::{
    query_stream, BatchProgress, HotStepper, InOrderEmitter, Query, QuerySet, SamplerKind,
    SamplerStream, StepOutcome, WalkApp, WalkEngine, WalkProgram, WalkSession, WalkSink, WalkState,
};

/// Serialized size of one hand-off record, excluding the optional
/// prev-row payload: four 4-byte walker fields (query id, current and
/// previous vertex, step count) and the 16-byte [`SamplerStream`]
/// position. Payload entries add four bytes each.
pub const HANDOFF_RECORD_BYTES: u64 = 32;

/// A partitioned-execution engine: one step lane per shard, bounded
/// hand-off queues between them, run by one or more shard executors.
pub struct ShardedEngine<'a> {
    sharded: ShardedGraph,
    app: &'a dyn WalkApp,
    sampler: SamplerKind,
    seed: u64,
    flush_budget: usize,
    /// Requested executor thread count: 1 = one executor on the calling
    /// thread, 0 = one executor per shard, n = min(n, k) executors.
    shard_threads: usize,
    /// Provenance note surfaced through session diagnostics (e.g. "the
    /// packed partition was discarded and rebuilt in memory").
    partition_note: Option<String>,
}

impl<'a> ShardedEngine<'a> {
    /// Default hand-off coalescing budget: records buffered per
    /// (source, destination) shard pair before a flush is forced.
    /// Chosen so a flush amortizes the link latency over a few KiB of
    /// records while keeping in-flight walkers bounded (DESIGN.md §11).
    pub const DEFAULT_FLUSH_BUDGET: usize = 64;

    /// Wrap an already-partitioned graph (e.g. loaded from a packed
    /// sharded file).
    pub fn new(
        sharded: ShardedGraph,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        assert!(sharded.k() > 0, "sharded engine requires at least 1 shard");
        Self {
            sharded,
            app,
            sampler,
            seed,
            flush_budget: Self::DEFAULT_FLUSH_BUDGET,
            shard_threads: 1,
            partition_note: None,
        }
    }

    /// Partition `g` into `k` shards and build an engine over the result.
    pub fn partition(
        g: &Graph,
        k: usize,
        strategy: ShardStrategy,
        app: &'a dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
    ) -> Self {
        Self::new(partition_graph(g, k, strategy), app, sampler, seed)
    }

    /// Override the hand-off flush budget (clamped to at least 1).
    pub fn with_flush_budget(mut self, flush_budget: usize) -> Self {
        self.flush_budget = flush_budget.max(1);
        self
    }

    /// Set the executor thread count: `1` runs one executor on the
    /// calling thread, `0` spawns one pinned executor per shard, and any
    /// other value is capped at the shard count. Sampled walks are
    /// bit-identical across every setting.
    pub fn with_shard_threads(mut self, shard_threads: usize) -> Self {
        self.shard_threads = shard_threads;
        self
    }

    /// Attach a partition-provenance note, surfaced verbatim at the end
    /// of every session's `diagnostics()`.
    pub fn with_partition_note(mut self, note: impl Into<String>) -> Self {
        self.partition_note = Some(note.into());
        self
    }

    /// The partitioned graph this engine executes over.
    pub fn sharded(&self) -> &ShardedGraph {
        &self.sharded
    }

    /// Records buffered per shard pair before a forced flush.
    pub fn flush_budget(&self) -> usize {
        self.flush_budget
    }

    /// Requested executor thread count (raw: 0 = one per shard).
    pub fn shard_threads(&self) -> usize {
        self.shard_threads
    }
}

impl WalkEngine for ShardedEngine<'_> {
    fn label(&self) -> String {
        format!(
            "sharded(k={}, {}, {})",
            self.sharded.k(),
            self.sharded.strategy.name(),
            self.sampler.name()
        )
    }

    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's> {
        Box::new(ShardedSession::new(self, queries))
    }

    /// One graph image per shard: a deployed sharded engine pushes each
    /// partition to its own executor.
    fn graph_images(&self) -> u64 {
        self.sharded.k() as u64
    }
}

/// One in-flight walker: its program state, partial path, RNG stream
/// position, and (between hand-off and arrival step) the shipped prev-row
/// payload.
struct Walker {
    st: WalkState,
    path: Vec<VertexId>,
    stream: SamplerStream,
    /// Previous vertex's adjacency row, shipped with a second-order
    /// hand-off; armed as the stepper's prev-row override for exactly
    /// the arrival step.
    prev_row: Option<Vec<VertexId>>,
}

impl Walker {
    /// Bytes this walker's hand-off record occupies on a link.
    fn record_bytes(&self) -> u64 {
        HANDOFF_RECORD_BYTES + 4 * self.prev_row.as_ref().map_or(0, |r| r.len()) as u64
    }
}

/// One shard's step lane: its stepper and the live walkers it owns.
/// Persists across advances, so walkers parked at the end of one advance
/// resume from the same queue in the next.
struct ShardLane<'g> {
    shard: usize,
    graph: &'g Graph,
    stepper: HotStepper,
    runq: VecDeque<(usize, Walker)>,
    /// Step attempts spent in the current advance.
    attempts: u64,
}

/// A sharded session: per-shard lanes, the retired paths awaiting
/// emission, and the hand-off tallies.
struct ShardedSession<'s> {
    sharded: &'s ShardedGraph,
    app: &'s dyn WalkApp,
    program: WalkProgram,
    queries: Vec<Query>,
    lanes: Vec<ShardLane<'s>>,
    flush_budget: usize,
    /// Resolved executor count (1 = the calling thread, else <= k).
    threads: usize,
    /// Paths of retired walkers, taken as the watermark emits them.
    retired: Vec<Option<Vec<VertexId>>>,
    emitter: InOrderEmitter,
    steps_done: u64,
    hand_offs: u64,
    flushes: u64,
    transfer_bytes: u64,
    /// Executors that successfully pinned in the last advance.
    pinned: usize,
    note: Option<&'s str>,
}

impl<'s> ShardedSession<'s> {
    fn new(engine: &'s ShardedEngine<'s>, queries: &QuerySet) -> Self {
        let sharded = &engine.sharded;
        let k = sharded.k();
        let threads = match engine.shard_threads {
            0 => k,
            t => t.min(k),
        };
        let max_degree = sharded
            .shards
            .iter()
            .map(|s| s.graph.max_degree())
            .max()
            .unwrap_or(0) as usize;
        let mut lanes: Vec<ShardLane<'s>> = sharded
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let mut stepper = HotStepper::new(engine.app, engine.sampler, engine.seed);
                stepper.reserve(max_degree);
                ShardLane {
                    shard,
                    graph: &s.graph,
                    stepper,
                    runq: VecDeque::new(),
                    attempts: 0,
                }
            })
            .collect();
        let qs = queries.queries().to_vec();
        for (qi, q) in qs.iter().enumerate() {
            let mut path = Vec::with_capacity(q.length as usize + 1);
            path.push(q.start);
            lanes[sharded.owner_of(q.start)].runq.push_back((
                qi,
                Walker {
                    st: WalkState::start(q.start),
                    path,
                    stream: query_stream(engine.sampler, engine.seed, qi),
                    prev_row: None,
                },
            ));
        }
        Self {
            sharded,
            app: engine.app,
            program: queries.program().clone(),
            retired: vec![None; qs.len()],
            emitter: InOrderEmitter::new(qs.len()),
            queries: qs,
            lanes,
            flush_budget: engine.flush_budget,
            threads,
            steps_done: 0,
            hand_offs: 0,
            flushes: 0,
            transfer_bytes: 0,
            pinned: 0,
            note: engine.partition_note.as_deref(),
        }
    }

    /// Run every executor over the live walkers until quiescence,
    /// emitting retired paths at the watermark as they arrive. Returns
    /// the paths emitted and the executors' tallies.
    fn run_executors(
        &mut self,
        budget: u64,
        live: usize,
        sink: &mut dyn WalkSink,
    ) -> (usize, Vec<ExecStats>) {
        let threads = self.threads;
        let mut lanes_by_exec: Vec<Vec<&mut ShardLane<'s>>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            lane.attempts = 0;
            lanes_by_exec[s % threads].push(lane);
        }
        let active = AtomicUsize::new(live);
        let (txs, rxs): (Vec<Sender<ExecMsg>>, Vec<Receiver<ExecMsg>>) =
            (0..threads).map(|_| channel()).unzip();
        let (done_tx, done_rx) = channel::<Vec<(usize, Vec<VertexId>)>>();
        // Every executor holds senders to every inbox (its own included)
        // and to the done channel; once the executors return, the done
        // channel disconnects and the collection loop below ends.
        let ctxs: Vec<ExecCtx<'_>> = (0..threads)
            .map(|exec| ExecCtx {
                exec,
                threads,
                k: self.sharded.k(),
                budget,
                flush_budget: self.flush_budget,
                app: self.app,
                program: &self.program,
                queries: &self.queries,
                sharded: self.sharded,
                txs: txs.clone(),
                done_tx: done_tx.clone(),
                done_buf: RefCell::new(Vec::new()),
                active: &active,
            })
            .collect();
        drop((txs, done_tx));

        let (retired, emitter) = (&mut self.retired, &mut self.emitter);
        let mut emitted = 0usize;
        let mut collect = || {
            for batch in &done_rx {
                for (wi, path) in batch {
                    retired[wi] = Some(path);
                }
                emitted += drain_ready(emitter, retired, sink);
            }
        };
        let work = ctxs.into_iter().zip(lanes_by_exec).zip(rxs);
        let stats = if threads == 1 {
            let stats: Vec<ExecStats> = work
                .map(|((ctx, lanes), rx)| run_executor(ctx, lanes, rx))
                .collect();
            collect();
            stats
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .map(|((ctx, lanes), rx)| {
                        scope.spawn(move || {
                            let pinned = affinity::pin_current_thread(ctx.exec);
                            ExecStats {
                                pinned,
                                ..run_executor(ctx, lanes, rx)
                            }
                        })
                    })
                    .collect();
                // Emission overlaps with the executors' remaining compute.
                collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        (emitted, stats)
    }
}

/// Emit every ready path at the watermark.
fn drain_ready(
    emitter: &mut InOrderEmitter,
    retired: &mut [Option<Vec<VertexId>>],
    sink: &mut dyn WalkSink,
) -> usize {
    emitter.drain(sink, |id| retired[id].take())
}

impl WalkSession for ShardedSession<'_> {
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress {
        let budget = max_steps.max(1);
        let mut progress = BatchProgress::default();
        let live: usize = self.lanes.iter().map(|l| l.runq.len()).sum();
        if live > 0 {
            let (emitted, stats) = self.run_executors(budget, live, sink);
            progress.paths_completed += emitted;
            self.pinned = stats.iter().filter(|s| s.pinned).count();
            for st in stats {
                progress.steps += st.steps;
                self.steps_done += st.steps;
                self.hand_offs += st.hand_offs;
                self.flushes += st.flushes;
                self.transfer_bytes += st.transfer_bytes;
            }
        }
        // Covers the nothing-live case (every walker retired but not yet
        // emitted — e.g. a zero-progress advance call).
        progress.paths_completed += drain_ready(&mut self.emitter, &mut self.retired, sink);
        progress.finished = self.finished();
        progress
    }

    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress {
        for lane in &mut self.lanes {
            for (wi, wk) in lane.runq.drain(..) {
                self.retired[wi] = Some(wk.path);
            }
        }
        BatchProgress {
            steps: 0,
            paths_completed: drain_ready(&mut self.emitter, &mut self.retired, sink),
            finished: true,
        }
    }

    fn finished(&self) -> bool {
        self.emitter.finished()
    }

    fn steps_done(&self) -> u64 {
        self.steps_done
    }

    fn paths_completed(&self) -> usize {
        self.emitter.emitted()
    }

    fn diagnostics(&self) -> Option<String> {
        let mut d = format!(
            "k={} strategy={} threads={} pinned={} hand-offs={} flushes={} transfer-bytes={}",
            self.sharded.k(),
            self.sharded.strategy.name(),
            self.threads,
            self.pinned,
            self.hand_offs,
            self.flushes,
            self.transfer_bytes,
        );
        if let Some(note) = self.note {
            d.push_str(", ");
            d.push_str(note);
        }
        Some(d)
    }
}

// --- Shard executors (DESIGN.md §12) --------------------------------------

/// Channel message between executors: a coalesced hand-off batch bound
/// for one shard, the quiescence broadcast that ends the advance, or the
/// abort a panicking executor sends as it unwinds.
enum ExecMsg {
    Batch {
        shard: usize,
        walkers: Vec<(usize, Walker)>,
    },
    Quiesce,
    Abort,
}

/// Per-executor tallies folded into the session after the advance.
#[derive(Default)]
struct ExecStats {
    steps: u64,
    hand_offs: u64,
    flushes: u64,
    transfer_bytes: u64,
    pinned: bool,
}

/// Everything an executor shares or owns for one advance.
struct ExecCtx<'a> {
    exec: usize,
    threads: usize,
    k: usize,
    budget: u64,
    flush_budget: usize,
    app: &'a dyn WalkApp,
    program: &'a WalkProgram,
    queries: &'a [Query],
    sharded: &'a ShardedGraph,
    txs: Vec<Sender<ExecMsg>>,
    done_tx: Sender<Vec<(usize, Vec<VertexId>)>>,
    done_buf: RefCell<Vec<(usize, Vec<VertexId>)>>,
    active: &'a AtomicUsize,
}

/// Retired paths per message on the done channel. Retirements come in
/// floods, so sending them one channel message at a time costs more
/// than the walking; batches keep the session thread's wake-ups rare.
const COMPLETION_BATCH: usize = 256;

impl ExecCtx<'_> {
    /// Queue a retired walker's path for the session thread and count
    /// the walker out. The path travels in a batch — flushed at
    /// [`COMPLETION_BATCH`], before this executor blocks, and at exit.
    fn retire(&self, wi: usize, path: Vec<VertexId>) {
        let mut buf = self.done_buf.borrow_mut();
        buf.push((wi, path));
        if buf.len() >= COMPLETION_BATCH {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
        drop(buf);
        self.count_out(1);
    }

    /// Count out `n` walkers that stay in an exhausted lane until the
    /// next advance; whoever counts out the last runnable walker
    /// broadcasts `Quiesce` so every blocked executor unblocks and
    /// returns.
    fn count_out(&self, n: usize) {
        if n > 0 && self.active.fetch_sub(n, Ordering::AcqRel) == n {
            for tx in &self.txs {
                let _ = tx.send(ExecMsg::Quiesce);
            }
        }
    }

    /// Ship any buffered paths now. Must run before blocking on the
    /// inbox (the session thread may be waiting on exactly these
    /// walkers) and before the executor returns.
    fn flush_completions(&self) {
        let mut buf = self.done_buf.borrow_mut();
        if !buf.is_empty() {
            let _ = self.done_tx.send(std::mem::take(&mut *buf));
        }
    }

    /// Take outbox slot `t` and ship it: count its records, send a
    /// remote batch straight to the owning executor's inbox, and return
    /// a local one for the caller to deliver.
    fn ship(
        &self,
        t: usize,
        slot: &mut Vec<(usize, Walker)>,
        stats: &mut ExecStats,
    ) -> Option<Vec<(usize, Walker)>> {
        let batch = std::mem::take(slot);
        stats.flushes += 1;
        stats.transfer_bytes += batch.iter().map(|(_, w)| w.record_bytes()).sum::<u64>();
        let dst = t % self.threads;
        if dst == self.exec {
            return Some(batch);
        }
        // A send only fails after the peer saw Quiesce, which can only
        // happen once no runnable walkers remain — and this batch holds
        // runnable walkers, so the peer is still running.
        let _ = self.txs[dst].send(ExecMsg::Batch {
            shard: t,
            walkers: batch,
        });
        None
    }
}

/// The unwind guard: an executor that panics tells its peers to return
/// (they would otherwise wait forever for its hand-offs), and dropping
/// its senders then lets the session thread's collection loop end.
impl Drop for ExecCtx<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for tx in &self.txs {
                let _ = tx.send(ExecMsg::Abort);
            }
        }
    }
}

/// Deliver an arrived batch into the destination lane. A lane whose
/// budget is already spent keeps the walkers parked for the next advance
/// and counts them out, so an exhausted lane can never strand the
/// quiescence count.
fn deliver(
    ctx: &ExecCtx<'_>,
    lanes: &mut [&mut ShardLane<'_>],
    shard: usize,
    batch: Vec<(usize, Walker)>,
) {
    let lane = &mut lanes[shard / ctx.threads];
    debug_assert_eq!(lane.shard, shard);
    let parked = if lane.attempts >= ctx.budget {
        batch.len()
    } else {
        0
    };
    lane.runq.extend(batch);
    ctx.count_out(parked);
}

/// Ship outbox entries, delivering local batches in place. With `force`,
/// every non-empty destination flushes; otherwise only those at the
/// flush budget. Returns how many walkers were delivered locally.
fn flush_outbox(
    ctx: &ExecCtx<'_>,
    lanes: &mut [&mut ShardLane<'_>],
    outbox: &mut [Vec<(usize, Walker)>],
    stats: &mut ExecStats,
    force: bool,
) -> usize {
    let mut delivered_local = 0usize;
    for (t, slot) in outbox.iter_mut().enumerate() {
        if slot.is_empty() || (!force && slot.len() < ctx.flush_budget) {
            continue;
        }
        if let Some(batch) = ctx.ship(t, slot, stats) {
            delivered_local += batch.len();
            deliver(ctx, lanes, t, batch);
        }
    }
    delivered_local
}

/// Sweep one lane: step each queue head until it retires, hands off, or
/// the lane spends its per-advance budget, which parks what is left.
/// Crossings land in `outbox`. A batch that reaches the flush budget
/// ships at once when its destination is on a *remote* executor, so it
/// overlaps with this executor's remaining compute; a local one ends the
/// sweep so the executor can deliver it. Returns whether the lane did
/// any work.
fn sweep_lane(
    ctx: &ExecCtx<'_>,
    lane: &mut ShardLane<'_>,
    outbox: &mut [Vec<(usize, Walker)>],
    stats: &mut ExecStats,
) -> bool {
    if lane.attempts >= ctx.budget {
        return false;
    }
    let mut worked = false;
    'sweep: while lane.attempts < ctx.budget {
        let Some((wi, mut wk)) = lane.runq.pop_front() else {
            return worked;
        };
        worked = true;
        let q = ctx.queries[wi];
        let stepper = &mut lane.stepper;
        stepper.import_stream(&wk.stream);
        if let Some(row) = wk.prev_row.take() {
            stepper.arm_prev_row(&row);
        }
        loop {
            lane.attempts += 1;
            let outcome = ctx
                .program
                .step_attempt(lane.graph, ctx.app, stepper, &q, &mut wk.st);
            stepper.clear_prev_row();
            let done = match outcome {
                StepOutcome::Moved { done, .. } | StepOutcome::Teleported { done, .. } => {
                    wk.path
                        .push(outcome.appended(q.start).expect("advancing outcome"));
                    stats.steps += 1;
                    done
                }
                StepOutcome::DeadEnd | StepOutcome::TargetAtStart => true,
            };
            if done {
                ctx.retire(wi, wk.path);
                break;
            }
            let t = ctx.sharded.owner_of(wk.st.cur);
            if t != lane.shard {
                // Hand-off: second-order apps ship the previous vertex's
                // row — it lives on this shard, not the destination.
                wk.stream = stepper.export_stream();
                if ctx.app.second_order() {
                    if let Some(prev) = wk.st.prev {
                        wk.prev_row = Some(lane.graph.neighbors(prev).to_vec());
                    }
                }
                stats.hand_offs += 1;
                outbox[t].push((wi, wk));
                if outbox[t].len() >= ctx.flush_budget {
                    if t % ctx.threads == ctx.exec {
                        break 'sweep;
                    }
                    ctx.ship(t, &mut outbox[t], stats);
                }
                break;
            }
            if lane.attempts >= ctx.budget {
                // Budget ran out mid-walk: the walker keeps the queue head.
                wk.stream = stepper.export_stream();
                lane.runq.push_front((wi, wk));
                break;
            }
        }
    }
    if lane.attempts >= ctx.budget {
        // Park everything left; later arrivals park in `deliver`.
        ctx.count_out(lane.runq.len());
    }
    worked
}

/// Executor body: loop { absorb arrivals, sweep local lanes, flush ready
/// outboxes }; block on the inbox only when out of local work with
/// everything flushed, and return on `Quiesce` (or a peer's `Abort`).
///
/// Termination invariant: `active` counts walkers runnable in this
/// advance, in run queues, outboxes and channels. Every retire and park
/// counts a walker out exactly once, and `Quiesce` is broadcast only at
/// zero — at which point no batch can be in flight anywhere, so
/// returning immediately is safe.
fn run_executor(
    ctx: ExecCtx<'_>,
    mut lanes: Vec<&mut ShardLane<'_>>,
    rx: Receiver<ExecMsg>,
) -> ExecStats {
    let mut stats = ExecStats::default();
    let mut outbox: Vec<Vec<(usize, Walker)>> = (0..ctx.k).map(|_| Vec::new()).collect();
    'round: loop {
        // Absorb queued arrivals without blocking.
        loop {
            match rx.try_recv() {
                Ok(ExecMsg::Batch { shard, walkers }) => deliver(&ctx, &mut lanes, shard, walkers),
                Ok(ExecMsg::Quiesce) => break 'round,
                Ok(ExecMsg::Abort) => return stats,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let mut worked = false;
        for lane in lanes.iter_mut() {
            worked |= sweep_lane(&ctx, lane, &mut outbox, &mut stats);
        }
        // Budget-ready local batches deliver between sweeps; remote ones
        // shipped inline.
        if flush_outbox(&ctx, &mut lanes, &mut outbox, &mut stats, false) > 0 {
            worked = true;
        }
        if !worked {
            // Out of local work: force-flush stragglers, then block for
            // arrivals (or the quiescence broadcast). Buffered paths ship
            // first — the session thread may be waiting on exactly these
            // walkers.
            if flush_outbox(&ctx, &mut lanes, &mut outbox, &mut stats, true) > 0 {
                continue;
            }
            ctx.flush_completions();
            match rx.recv() {
                Ok(ExecMsg::Batch { shard, walkers }) => deliver(&ctx, &mut lanes, shard, walkers),
                Ok(ExecMsg::Quiesce) | Err(_) => break 'round,
                Ok(ExecMsg::Abort) => return stats,
            }
        }
    }
    ctx.flush_completions();
    debug_assert!(
        outbox.iter().all(|b| b.is_empty()),
        "quiesce with live outbox"
    );
    debug_assert!(
        lanes
            .iter()
            .all(|l| l.runq.is_empty() || l.attempts >= ctx.budget),
        "quiesce with a runnable walker"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::generators;
    use lightrw_walker::{Node2Vec, ReferenceEngine, Uniform, WalkEngineExt};

    #[test]
    fn single_shard_matches_the_reference_engine_exactly() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 40, 12, 99);
        let reference =
            ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 7).run(&qs);
        let engine = ShardedEngine::partition(
            &g,
            1,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            7,
        );
        let sharded = engine.run_collected(&qs);
        assert_eq!(sharded, reference);
    }

    #[test]
    fn hand_offs_charge_the_transfer_model_and_report_diagnostics() {
        // The transfer model is the record-size accounting: every flush
        // charges HANDOFF_RECORD_BYTES per walker plus its prev-row.
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        let nv = Node2Vec::paper_params();
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &nv,
            SamplerKind::InverseTransform,
            7,
        );
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(100, &mut sink);
        }
        assert_eq!(sink.paths, 64);
        assert_eq!(
            session.model_seconds(),
            None,
            "sharded sessions are measured"
        );
        let diag = session.diagnostics().unwrap();
        assert!(diag.contains("k=4"), "{diag}");
        let field = |key: &str| -> u64 {
            diag.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{key} missing: {diag}"))
        };
        let hand_offs = field("hand-offs=");
        assert!(hand_offs > 0, "4-way rmat split must hand off walkers");
        assert!(field("flushes=") > 0, "{diag}");
        assert!(
            field("transfer-bytes=") >= hand_offs * HANDOFF_RECORD_BYTES,
            "{diag}"
        );
    }

    #[test]
    fn shard_count_and_flush_budget_never_change_sampled_walks() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 32, 10, 21);
        let nv = Node2Vec::paper_params();
        let baseline = ReferenceEngine::new(&g, &nv, SamplerKind::InverseTransform, 11).run(&qs);
        for (k, flush) in [(1, 1), (2, 1), (3, 7), (4, 64)] {
            let engine = ShardedEngine::partition(
                &g,
                k,
                ShardStrategy::Range,
                &nv,
                SamplerKind::InverseTransform,
                11,
            )
            .with_flush_budget(flush);
            let got = engine.run_collected(&qs);
            assert_eq!(got, baseline, "k={k} flush={flush}");
        }
    }

    #[test]
    fn parallel_executors_match_the_sequential_schedule() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 48, 10, 21);
        let nv = Node2Vec::paper_params();
        let baseline = ShardedEngine::partition(
            &g,
            3,
            ShardStrategy::Range,
            &nv,
            SamplerKind::InverseTransform,
            11,
        )
        .run_collected(&qs);
        for (threads, flush) in [(2, 1), (3, 7), (0, 64)] {
            let engine = ShardedEngine::partition(
                &g,
                3,
                ShardStrategy::Range,
                &nv,
                SamplerKind::InverseTransform,
                11,
            )
            .with_flush_budget(flush)
            .with_shard_threads(threads);
            let got = engine.run_collected(&qs);
            assert_eq!(got, baseline, "threads={threads} flush={flush}");
        }
    }

    #[test]
    fn parallel_diagnostics_report_threads_and_the_partition_note() {
        let mut g = generators::rmat_dataset(8, 17);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 64, 16, 3);
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            7,
        )
        .with_shard_threads(2)
        .with_partition_note("partition built in memory");
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(256, &mut sink);
        }
        assert_eq!(sink.paths, 64);
        let diag = session.diagnostics().unwrap();
        assert!(
            diag.contains("threads=2") && diag.contains("pinned="),
            "{diag}"
        );
        assert!(diag.ends_with("partition built in memory"), "{diag}");
    }

    #[test]
    fn parallel_cancel_emits_remaining_prefixes_exactly_once() {
        let mut g = generators::rmat_dataset(7, 5);
        g.build_prefix_cache();
        let qs = QuerySet::n_queries(&g, 32, 12, 9);
        let engine = ShardedEngine::partition(
            &g,
            4,
            ShardStrategy::Range,
            &Uniform,
            SamplerKind::InverseTransform,
            5,
        )
        .with_shard_threads(0);
        let mut sink = lightrw_walker::CountingSink::default();
        let mut session = engine.start_session(&qs);
        session.advance(3, &mut sink);
        session.cancel(&mut sink);
        assert_eq!(sink.paths, 32, "every path emitted exactly once");
        assert!(session.finished());
        let again = session.cancel(&mut lightrw_walker::CountingSink::default());
        assert_eq!(again.paths_completed, 0, "second cancel emits nothing");
    }

    /// Uniform weights until a shared call budget runs out, then a panic
    /// — a fault injected inside a shard executor's step.
    struct PanicsAfter {
        calls: AtomicUsize,
        limit: usize,
    }

    impl WalkApp for PanicsAfter {
        fn name(&self) -> &'static str {
            "PanicsAfter"
        }
        fn second_order(&self) -> bool {
            false
        }
        fn weight(
            &self,
            _ctx: lightrw_walker::app::StepContext,
            _nbr: VertexId,
            _w: u32,
            _rel: u8,
            _pin: bool,
        ) -> u32 {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(n < self.limit, "injected weight fault");
            1
        }
    }

    #[test]
    fn executor_panic_reaches_the_caller_instead_of_hanging() {
        // A panic inside one executor must not strand its peers (which
        // hold senders to each other) or the session thread: the advance
        // re-raises it, with one executor and with one per shard. Each
        // run happens on a watchdog thread joined with a timeout.
        for threads in [1usize, 0] {
            let (tx, rx) = channel();
            std::thread::spawn(move || {
                let g = generators::rmat_dataset(8, 17);
                let qs = QuerySet::n_queries(&g, 256, 40, 3);
                let app = PanicsAfter {
                    calls: AtomicUsize::new(0),
                    limit: 2_000,
                };
                let engine = ShardedEngine::partition(
                    &g,
                    3,
                    ShardStrategy::Range,
                    &app,
                    SamplerKind::InverseTransform,
                    7,
                )
                .with_shard_threads(threads);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.run_collected(&qs)
                }));
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("threads={threads}: session hung after a panic"));
            assert!(
                panicked,
                "threads={threads}: the fault must reach the caller"
            );
        }
    }
}
