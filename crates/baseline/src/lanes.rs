//! Step-centric worker lanes: the CPU engine's execution layout.
//!
//! A session splits its query set into contiguous per-worker **lanes**
//! ([`LanePlan`]); each [`WorkerLane`] owns its walkers' SoA state plus a
//! [`WalkerRing`] and advances them with the paper's step-centric
//! Gather–Move–Update cycle (DESIGN.md §9):
//!
//! - **Gather** — fix the ring's current walker, import its RNG stream
//!   into the lane's stepper, and software-prefetch the *following*
//!   walker's CSR row ([`prefetch_row`], distance 1), so its adjacency
//!   travels toward cache while the current walker samples.
//! - **Move** — one turn of the shared [`WalkProgram`] state machine,
//!   which resolves the current row and draws through the fused
//!   [`HotStepper`] fast paths.
//! - **Update** — write back walker state and its exported stream, append
//!   the emitted vertex, and retire or keep the walker in the ring.
//!
//! Every walker starts on its [`query_stream`], keyed by the global query
//! index, and carries the stream from visit to visit. A walk is therefore
//! the reference engine's walk for that query, whatever the lane
//! boundaries, thread count, visit order or advance schedule.

use lightrw_graph::{Graph, VertexId};
use lightrw_walker::program::{StepOutcome, WalkProgram, WalkState};
use lightrw_walker::{
    prefetch_row, query_stream, HotStepper, Query, SamplerKind, SamplerStream, WalkApp, WalkerRing,
};

/// How a session maps queries onto worker lanes.
///
/// Thread resolution is a documented **double clamp**: first the
/// *requested* worker count resolves (`0` → one per available core), then
/// the *lane* count clamps to the query count — `lane_len =
/// ceil(queries / workers)` means at most `queries` lanes materialize, so
/// tiny batches on big machines don't spawn empty workers. The service
/// pool and the CLI both size through this plan, so `--threads N` and a
/// jobspec `threads` field agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePlan {
    /// Worker count after the first clamp (`0` → available cores).
    pub workers: usize,
    /// Queries per lane (every lane but possibly the last).
    pub lane_len: usize,
    /// Lanes that actually materialize (`≤ workers`, second clamp).
    pub lanes: usize,
}

/// Resolve a requested thread count: `0` means one worker per core the
/// scheduler grants us.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

impl LanePlan {
    /// Plan lanes for `num_queries` queries over `requested` threads.
    pub fn plan(requested: usize, num_queries: usize) -> Self {
        let workers = resolve_workers(requested);
        let lane_len = num_queries.div_ceil(workers).max(1);
        Self {
            workers,
            lane_len,
            lanes: num_queries.div_ceil(lane_len),
        }
    }
}

/// One worker's walkers in structure-of-arrays layout: the ring sweep
/// touches `cur`/`prev`/`stream` for every active walker, so dense
/// parallel arrays (instead of an array of structs with inline path
/// buffers) keep the sweep's working set to a few cache lines per walker.
/// Each lane owns its stepper (built from the engine seed; walkers bring
/// their own streams) and its ring, which lets a session pause mid-sweep
/// and resume exactly where it stopped.
pub struct WorkerLane {
    stepper: HotStepper,
    queries: Vec<Query>,
    cur: Vec<VertexId>,
    prev: Vec<Option<VertexId>>,
    /// Each walker's RNG stream position, imported before every visit and
    /// exported after it.
    stream: Vec<SamplerStream>,
    /// Step budget consumed per walker (moves + teleports).
    taken: Vec<u32>,
    /// Step index within the current restart segment (resets on teleport)
    /// — the `t` the weight rules see.
    seg: Vec<u32>,
    /// Output paths, preallocated to full length at setup — the step loop
    /// never allocates. A path's buffer is released (taken) once emitted.
    paths: Vec<Vec<VertexId>>,
    done: Vec<bool>,
    /// Scheduling state: which walkers still walk, and where in the sweep.
    ring: WalkerRing,
}

impl WorkerLane {
    /// Build a lane over `qs`, whose first query has global index
    /// `first`, with scratch sized for `max_degree`.
    pub fn new(
        qs: &[Query],
        first: usize,
        app: &dyn WalkApp,
        sampler: SamplerKind,
        seed: u64,
        max_degree: usize,
    ) -> Self {
        let mut stepper = HotStepper::new(app, sampler, seed);
        stepper.reserve(max_degree);
        Self {
            stepper,
            cur: qs.iter().map(|q| q.start).collect(),
            prev: vec![None; qs.len()],
            stream: (first..first + qs.len())
                .map(|qi| query_stream(sampler, seed, qi))
                .collect(),
            taken: vec![0; qs.len()],
            seg: vec![0; qs.len()],
            paths: qs
                .iter()
                .map(|q| {
                    let mut p = Vec::with_capacity(q.length as usize + 1);
                    p.push(q.start);
                    p
                })
                .collect(),
            done: vec![false; qs.len()],
            ring: WalkerRing::full(qs.len()),
            queries: qs.to_vec(),
        }
    }

    /// Whether every walker in this lane has retired.
    pub fn is_idle(&self) -> bool {
        self.ring.is_empty()
    }

    /// Run up to `budget` Gather–Move–Update visits, one step attempt per
    /// visit, round-robin over the ring. Returns steps executed
    /// (truncating dead-end and target-at-start visits consume budget but
    /// no step; teleports count as steps, keeping step totals equal to
    /// emitted path lengths).
    pub fn advance(
        &mut self,
        budget: u64,
        g: &Graph,
        app: &dyn WalkApp,
        program: &WalkProgram,
    ) -> u64 {
        let mut attempts = 0u64;
        let mut steps = 0u64;
        while attempts < budget {
            // Gather: fix this visit's walker, then prefetch the row the
            // *next* walker will sample from, one full Move+Update ahead
            // of its use.
            let Some(qi) = self.ring.current() else {
                break;
            };
            if let Some(next) = self.ring.upcoming() {
                prefetch_row(g, self.cur[next]);
            }
            // Move: one turn of the shared program state machine (which
            // resolves the current row and samples through the fused
            // stepper paths).
            let q = self.queries[qi];
            let mut st = WalkState {
                cur: self.cur[qi],
                prev: self.prev[qi],
                taken: self.taken[qi],
                seg: self.seg[qi],
            };
            self.stepper.import_stream(&self.stream[qi]);
            let outcome = program.step_attempt(g, app, &mut self.stepper, &q, &mut st);
            // Update: write back, append, retire or keep.
            self.stream[qi] = self.stepper.export_stream();
            self.cur[qi] = st.cur;
            self.prev[qi] = st.prev;
            self.taken[qi] = st.taken;
            self.seg[qi] = st.seg;
            let done = match outcome {
                StepOutcome::Moved { done, .. } | StepOutcome::Teleported { done, .. } => {
                    steps += 1;
                    let v = outcome.appended(q.start).expect("advancing outcome");
                    self.paths[qi].push(v);
                    done
                }
                StepOutcome::DeadEnd | StepOutcome::TargetAtStart => true,
            };
            if done {
                self.done[qi] = true;
                self.ring.retire();
            } else {
                self.ring.keep();
            }
            attempts += 1;
        }
        steps
    }

    /// Upper-bound estimate of the step attempts left in this lane: the
    /// sum of each active walker's remaining step budget. Truncating
    /// visits (dead ends, target-at-start) retire walkers early, so the
    /// true count can only be lower. The session's spawn gate uses this
    /// to keep tiny batches off the thread pool.
    pub fn remaining_steps(&self) -> u64 {
        self.ring
            .active()
            .iter()
            .map(|&qi| self.queries[qi].length.saturating_sub(self.taken[qi]) as u64)
            .sum()
    }

    /// Release the finished path of local walker `local`, or `None` while
    /// it is still walking. Feeds an
    /// [`lightrw_walker::engine::InOrderEmitter`]'s `take_ready`; the
    /// buffer handoff (`std::mem::take`) is what makes emission
    /// exactly-once.
    pub fn take_path(&mut self, local: usize) -> Option<Vec<VertexId>> {
        if self.done[local] {
            Some(std::mem::take(&mut self.paths[local]))
        } else {
            None
        }
    }

    /// Retire every remaining walker, freezing paths as they stand
    /// (cancellation).
    pub fn cancel(&mut self) {
        for &qi in self.ring.active() {
            self.done[qi] = true;
        }
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_resolves_zero_to_available_cores() {
        let auto = LanePlan::plan(0, 1_000);
        assert_eq!(
            auto.workers,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(LanePlan::plan(3, 1_000).workers, 3);
    }

    #[test]
    fn lane_count_clamps_to_the_query_count() {
        // Second clamp: 8 workers over 3 queries → 3 one-query lanes.
        let plan = LanePlan::plan(8, 3);
        assert_eq!(plan.lane_len, 1);
        assert_eq!(plan.lanes, 3);
        // And an empty set plans zero lanes without dividing by zero.
        let empty = LanePlan::plan(4, 0);
        assert_eq!(empty.lanes, 0);
        assert_eq!(empty.lane_len, 1);
    }

    #[test]
    fn lane_boundaries_match_the_chunking_formula() {
        // The plan must reproduce `qs.chunks(lane_len)` exactly — the
        // session maps global query ids to (lane, slot) through it.
        for (threads, n) in [(1, 10), (3, 10), (4, 9), (7, 7), (2, 1)] {
            let plan = LanePlan::plan(threads, n);
            assert_eq!(plan.lane_len, n.div_ceil(threads).max(1));
            assert_eq!(
                plan.lanes,
                (0..n).collect::<Vec<_>>().chunks(plan.lane_len).count()
            );
        }
    }
}
