//! Hot-path throughput report: quick steps/sec presets for the CPU
//! baseline and the hwsim feeder, written as machine-readable JSON.
//!
//! This is the perf-trajectory seeder: CI runs `bench_report --quick` on
//! every push and uploads `BENCH_hotpath.json`, so hot-path regressions in
//! the per-step sampling loop (DESIGN.md §5) show up as a throughput drop
//! in the artifact history rather than silently distorting the Fig. 14
//! comparisons.
//!
//! The `throughput` rows sweep CPU worker lanes 1 → N (deduped by the
//! *resolved* worker count, so a small host never writes duplicate rows)
//! and add a single-threaded rejection-sampler row for second-order apps.
//! Two derived sections ride along: `node2vec_gap` (the uniform-vs-
//! Node2Vec per-step cost ratio per sampler — the §9 acceptance gate is
//! a sub-5× gap with rejection) and `sim_instance_scaling` (1 → 4 hwsim
//! pipeline instances in **model time**, the scaling curve that stays
//! meaningful on a single-core CI host). The config line records
//! `host_cores` so readers can interpret the lane sweep.
//!
//! Besides the per-engine `throughput` rows, the report carries a
//! `mixed_engine` section: all three backends (reference, CPU, simulated
//! accelerator) run **concurrently as interleaved batched sessions**
//! behind `&dyn WalkEngine` (DESIGN.md §6) — the multi-tenant batching
//! shape a serving host uses — and each reports its share of the
//! multiplexed wall clock.
//!
//! A second file, `BENCH_service.json` (`--out-service PATH`), carries
//! the `service_saturation` sweep: a fixed workload split across 1 → 8
//! concurrent tenants on the CPU backend, scheduled by the multi-tenant
//! `WalkService` (DESIGN.md §7). Aggregate steps/s must hold (or improve)
//! as tenancy grows — scheduler overhead showing up as a throughput cliff
//! is exactly the regression this artifact is meant to catch — while the
//! p50/p99 rows track how tail latency degrades with contention.
//!
//! A third file, `BENCH_programs.json` (`--out-programs PATH`), carries
//! the `program_mix` scenario: the walk-program surface (DESIGN.md §8) —
//! fixed-length, PPR restarts, dead-end restarts, target termination —
//! measured per program × backend on one workload, so control-flow
//! overhead on the hot path (the restart draw, the target probe) shows up
//! as a steps/s delta against the fixed-length row.
//!
//! A fourth file, `BENCH_scale.json` (`--out-scale PATH`, scenario
//! `graph_scale`), carries the out-of-core sweep (DESIGN.md §10):
//! per RMAT scale 12 → 22 (`--quick`: 8 → 10), stream-pack to a temp
//! `.lrwpak`, load it back via `mmap`, and run a multi-thread weighted
//! walk straight off the mapping — recording pack time, file size,
//! per-phase peak RSS and steps/s. The headline column is
//! `walk_rss_over_file`: the walk's resident footprint as a fraction of
//! the packed file, which must stay well below 1 at large scales.
//!
//! The same file also carries the `shard_scale` scenario (DESIGN.md
//! §11–§12): the partitioned engine on rmat-12 under Node2Vec, one row
//! per (K, strategy, threads) — one executor on the calling thread for
//! K ∈ {1, 2, 4}, pinned parallel executors (`threads = K`) for the
//! range and walk-aware partitions — recording measured columns only:
//! wall `steps_per_sec`, measured vs expected crossing rate, hand-off,
//! flush and hand-off record byte counts, next to an unsharded
//! `ReferenceEngine` row that walks the same paths. Every parallel run
//! is asserted bit-identical to the reference engine in-bench. A
//! `compression` section records the packed-file shrink of the varint
//! neighbor-list encoding.
//!
//! A fifth file, `BENCH_serve_latency.json` (`--out-serve PATH`,
//! scenario `serve_latency`), carries the front-door serving sweep
//! (DESIGN.md §13): an in-process open-loop load generator drives the
//! scheduler + admission-control pair with Poisson arrivals from four
//! synthetic tenants at 0.25× → 2× of the calibrated capacity,
//! recording per level the admitted-job p50/p99 latency (plus its
//! queue-wait/execution split), throughput, and the shed rate. The
//! acceptance shape is *graceful degradation*: past saturation the
//! shed rate rises while admitted-job p99 stays bounded — an
//! ever-growing queue would instead show unbounded p99 with zero shed.
//!
//! ```text
//! cargo run --release -p lightrw-bench --bin bench_report -- --quick
//! cargo run --release -p lightrw-bench --bin bench_report -- program_mix --quick
//! cargo run --release -p lightrw-bench --bin bench_report -- --scale 13 \
//!     --baseline BENCH_before.json --out BENCH_hotpath.json
//! ```
//!
//! Positional arguments select scenarios (`hotpath`, `service`,
//! `program_mix`, `graph_scale`, `shard_scale`, `serve_latency`); none
//! selects the default `hotpath` + `service` pair, and each scenario
//! writes only its own JSON file.
//!
//! `--baseline PATH` embeds the `throughput` rows of a previous report (a
//! file this binary wrote) under `"baseline"`, giving one file with
//! machine-readable before/after numbers.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lightrw::graph::generators::rmat_dataset;
use lightrw::prelude::*;
use lightrw::service::{ServiceConfig, WalkService};

/// One measured engine × app × dataset row.
struct Row {
    dataset: String,
    app: &'static str,
    engine: &'static str,
    sampler: String,
    threads: usize,
    steps: u64,
    secs: f64,
}

impl Row {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"app\": \"{}\", \"engine\": \"{}\", \"sampler\": \"{}\", \
             \"threads\": {}, \"steps\": {}, \"secs\": {:.6}, \"steps_per_sec\": {:.1}}}",
            self.dataset,
            self.app,
            self.engine,
            self.sampler,
            self.threads,
            self.steps,
            self.secs,
            self.steps_per_sec()
        )
    }
}

struct ReportOpts {
    scale: u32,
    seed: u64,
    quick: bool,
    out: String,
    out_service: String,
    out_programs: String,
    out_scale: String,
    out_serve: String,
    baseline: Option<String>,
    /// Scenario names to run (`hotpath`, `service`, `program_mix`,
    /// `graph_scale`, `shard_scale`, `serve_latency`); empty = the
    /// default `hotpath` + `service` pair.
    scenarios: Vec<String>,
}

impl ReportOpts {
    fn from_args() -> Self {
        let mut o = Self {
            scale: 12,
            seed: 42,
            quick: false,
            out: "BENCH_hotpath.json".to_string(),
            out_service: "BENCH_service.json".to_string(),
            out_programs: "BENCH_programs.json".to_string(),
            out_scale: "BENCH_scale.json".to_string(),
            out_serve: "BENCH_serve_latency.json".to_string(),
            baseline: None,
            scenarios: Vec::new(),
        };
        const USAGE: &str =
            "usage: bench_report [hotpath|service|program_mix|graph_scale|shard_scale\
             |serve_latency ...] \
             --scale N --seed N --quick --out PATH --out-service PATH \
             --out-programs PATH --out-scale PATH --out-serve PATH --baseline PATH";
        fn die(msg: &str) -> ! {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2)
        }
        /// The flag's value: the next argument, required.
        fn value(args: &[String], i: &mut usize, flag: &str) -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .clone()
        }
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    o.scale = value(&args, &mut i, "--scale")
                        .parse()
                        .unwrap_or_else(|_| die("--scale needs an integer"));
                }
                "--seed" => {
                    o.seed = value(&args, &mut i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| die("--seed needs an integer"));
                }
                "--quick" => o.quick = true,
                "--out" => o.out = value(&args, &mut i, "--out"),
                "--out-service" => o.out_service = value(&args, &mut i, "--out-service"),
                "--out-programs" => o.out_programs = value(&args, &mut i, "--out-programs"),
                "--out-scale" => o.out_scale = value(&args, &mut i, "--out-scale"),
                "--out-serve" => o.out_serve = value(&args, &mut i, "--out-serve"),
                "--baseline" => o.baseline = Some(value(&args, &mut i, "--baseline")),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                name @ ("hotpath" | "service" | "program_mix" | "graph_scale" | "shard_scale"
                | "serve_latency") => o.scenarios.push(name.to_string()),
                other => die(&format!("unknown option or scenario {other}")),
            }
            i += 1;
        }
        if o.quick {
            o.scale = o.scale.min(10);
        }
        if o.scenarios.is_empty() {
            o.scenarios = vec!["hotpath".to_string(), "service".to_string()];
        }
        o
    }

    fn runs(&self, scenario: &str) -> bool {
        self.scenarios.iter().any(|s| s == scenario)
    }
}

/// The quick preset apps: the three first-order profiles plus the
/// second-order Node2Vec, each with its paper-ish walk length.
fn apps(quick: bool) -> Vec<(Box<dyn WalkApp>, u32)> {
    let n2v_len = if quick { 8 } else { 40 };
    vec![
        (Box::new(Uniform) as Box<dyn WalkApp>, 10),
        (Box::new(StaticWeighted) as Box<dyn WalkApp>, 10),
        (
            Box::new(MetaPath::new(vec![0, 1, 0, 1, 0])) as Box<dyn WalkApp>,
            5,
        ),
        (
            Box::new(Node2Vec::paper_params()) as Box<dyn WalkApp>,
            n2v_len,
        ),
    ]
}

/// Requested CPU worker counts for the lane-scaling sweep: explicit
/// 1 → N plus the auto row (`0` = one lane per core). Quick keeps CI
/// cheap.
fn thread_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 0]
    } else {
        vec![1, 2, 4, 8, 0]
    }
}

fn measure(name: &str, g: &Graph, opts: &ReportOpts, rows: &mut Vec<Row>) {
    for (app, len) in apps(opts.quick) {
        let qs = QuerySet::per_nonisolated_vertex(g, len, opts.seed);

        // CPU lane scaling, 1 → N worker lanes (threads = 1 is the
        // per-step path itself; the sweep is what Fig. 14's wall-clock
        // bars and the thread-scaling curve use). Deduped by *resolved*
        // worker count: the old `[1, 0]` pair wrote two identical rows on
        // a single-core host because both requests resolve to one worker.
        let mut resolved_seen: Vec<usize> = Vec::new();
        for requested in thread_sweep(opts.quick) {
            let resolved = lightrw::baseline::lanes::resolve_workers(requested);
            if resolved_seen.contains(&resolved) {
                continue;
            }
            resolved_seen.push(resolved);
            let cfg = BaselineConfig {
                threads: requested,
                seed: opts.seed,
                ..Default::default()
            };
            let engine = CpuEngine::new(g, app.as_ref(), cfg);
            let start = Instant::now();
            let (_, stats) = engine.run(&qs);
            let secs = start.elapsed().as_secs_f64();
            rows.push(Row {
                dataset: name.to_string(),
                app: app.name(),
                engine: "cpu",
                sampler: cfg.sampler.name(),
                threads: stats.threads,
                steps: stats.steps,
                secs,
            });
        }

        // Second-order apps only: the rejection-sampling fast path
        // (DESIGN.md §9), single-threaded so the node2vec_gap section
        // compares per-step cost, not parallelism.
        if matches!(
            app.weight_profile(),
            WeightProfile::SecondOrderEnvelope { .. }
        ) {
            let cfg = BaselineConfig {
                threads: 1,
                sampler: SamplerKind::Rejection,
                seed: opts.seed,
            };
            let engine = CpuEngine::new(g, app.as_ref(), cfg);
            let start = Instant::now();
            let (_, stats) = engine.run(&qs);
            rows.push(Row {
                dataset: name.to_string(),
                app: app.name(),
                engine: "cpu",
                sampler: cfg.sampler.name(),
                threads: stats.threads,
                steps: stats.steps,
                secs: start.elapsed().as_secs_f64(),
            });
        }

        // hwsim feeder: host wall-clock of the functional simulation — the
        // software loop this PR's fusion optimizes (model cycles are a
        // separate, unchanged story).
        let sim = LightRwSim::new(g, app.as_ref(), LightRwConfig::default());
        let start = Instant::now();
        let report = sim.run(&qs);
        let secs = start.elapsed().as_secs_f64();
        rows.push(Row {
            dataset: name.to_string(),
            app: app.name(),
            engine: "hwsim-feeder",
            sampler: format!("parallel-wrs(k={})", LightRwConfig::default().k),
            threads: 1,
            steps: report.steps,
            secs,
        });
    }
}

/// One engine's share of the mixed-engine interleaved-session scenario.
struct MixedRow {
    engine: String,
    batch: u64,
    steps: u64,
    /// Wall seconds this engine's `advance` calls consumed inside the
    /// multiplexing loop.
    secs: f64,
    batches: u64,
}

impl MixedRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\": \"{}\", \"batch\": {}, \"batches\": {}, \"steps\": {}, \
             \"secs\": {:.6}, \"steps_per_sec\": {:.1}}}",
            self.engine,
            self.batch,
            self.batches,
            self.steps,
            self.secs,
            self.steps_per_sec()
        )
    }
}

/// The batched mixed-engine scenario: one session per backend over the
/// same workload, advanced round-robin one bounded batch at a time —
/// no engine gets the host to itself, exactly like a multi-backend
/// serving tier. Walks stay bit-identical to each engine's monolithic
/// run (the session contract), so this measures pure batching overhead.
fn measure_mixed(name: &str, g: &Graph, opts: &ReportOpts, rows: &mut Vec<MixedRow>) {
    let app = Node2Vec::paper_params();
    let len = if opts.quick { 8 } else { 40 };
    let qs = QuerySet::per_nonisolated_vertex(g, len, opts.seed);
    let batch = 4096u64;

    let engines: Vec<Box<dyn WalkEngine + '_>> = vec![
        Box::new(ReferenceEngine::new(
            g,
            &app,
            SamplerKind::InverseTransform,
            opts.seed,
        )),
        Box::new(CpuEngine::new(
            g,
            &app,
            BaselineConfig {
                seed: opts.seed,
                ..Default::default()
            },
        )),
        Box::new(LightRwSim::new(
            g,
            &app,
            LightRwConfig {
                seed: opts.seed,
                ..LightRwConfig::default()
            },
        )),
    ];

    let mut sessions: Vec<_> = engines.iter().map(|e| e.start_session(&qs)).collect();
    let mut counters: Vec<CountingSink> = vec![CountingSink::default(); sessions.len()];
    let mut secs = vec![0.0f64; sessions.len()];
    let mut batches = vec![0u64; sessions.len()];
    let mut sinks: Vec<&mut dyn WalkSink> = counters
        .iter_mut()
        .map(|c| c as &mut dyn WalkSink)
        .collect();
    lightrw::walker::engine::multiplex_sessions(&mut sessions, &mut sinks, batch, |i, s, _| {
        secs[i] += s;
        batches[i] += 1;
    });
    drop(sinks);
    for ((engine, session), (counter, (s, b))) in engines
        .iter()
        .zip(&sessions)
        .zip(counters.iter().zip(secs.iter().zip(&batches)))
    {
        assert_eq!(counter.paths, qs.len(), "every path emitted exactly once");
        rows.push(MixedRow {
            engine: format!("{name}/{}", engine.label()),
            batch,
            steps: session.steps_done(),
            secs: *s,
            batches: *b,
        });
    }
}

/// One instance count of the `sim_instance_scaling` sweep. `secs` is
/// **simulated model time** (`SimReport::seconds`), not host wall clock:
/// the hwsim prices its processing-pipeline instances in the modeled
/// clock, so this is the scaling curve the accelerator would show, and
/// it stays meaningful on a single-core CI host where wall-clock lane
/// scaling cannot.
struct SimScaleRow {
    dataset: String,
    instances: usize,
    steps: u64,
    secs: f64,
}

impl SimScaleRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"instances\": {}, \"steps\": {}, \
             \"model_secs\": {:.6}, \"model_steps_per_sec\": {:.1}}}",
            self.dataset,
            self.instances,
            self.steps,
            self.secs,
            self.steps_per_sec()
        )
    }
}

/// The `sim_instance_scaling` sweep: the Uniform workload across 1 → 4
/// simulated processing-pipeline instances, in model time.
fn measure_sim_scaling(name: &str, g: &Graph, opts: &ReportOpts, rows: &mut Vec<SimScaleRow>) {
    let qs = QuerySet::per_nonisolated_vertex(g, 10, opts.seed);
    for instances in [1usize, 2, 4] {
        let cfg = LightRwConfig {
            instances,
            seed: opts.seed,
            ..LightRwConfig::default()
        };
        let report = LightRwSim::new(g, &Uniform, cfg).run(&qs);
        rows.push(SimScaleRow {
            dataset: name.to_string(),
            instances,
            steps: report.steps,
            secs: report.seconds,
        });
    }
}

/// One dataset's uniform-vs-node2vec per-step cost ratio at a fixed
/// sampler, single-threaded. The rejection row is the ISSUE acceptance
/// gate: the second-order gap must stay under 5× with the envelope
/// fast path.
struct GapRow {
    dataset: String,
    sampler: String,
    uniform_sps: f64,
    node2vec_sps: f64,
}

impl GapRow {
    fn gap(&self) -> f64 {
        if self.node2vec_sps > 0.0 {
            self.uniform_sps / self.node2vec_sps
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"sampler\": \"{}\", \"uniform_steps_per_sec\": {:.1}, \
             \"node2vec_steps_per_sec\": {:.1}, \"gap\": {:.3}}}",
            self.dataset,
            self.sampler,
            self.uniform_sps,
            self.node2vec_sps,
            self.gap()
        )
    }
}

/// Derive the `node2vec_gap` section from the measured throughput rows:
/// for each dataset, pair every single-threaded CPU node2vec row with
/// the single-threaded uniform row (always inverse-transform — uniform
/// rows don't vary by sampler in the sweep) and report the ratio.
fn node2vec_gaps(rows: &[Row]) -> Vec<GapRow> {
    let single = |r: &&Row| r.engine == "cpu" && r.threads == 1;
    rows.iter()
        .filter(single)
        .filter(|r| r.app == "Node2Vec")
        .filter_map(|n2v| {
            rows.iter()
                .filter(single)
                .find(|r| r.app == "Uniform" && r.dataset == n2v.dataset)
                .map(|uni| GapRow {
                    dataset: n2v.dataset.clone(),
                    sampler: n2v.sampler.clone(),
                    uniform_sps: uni.steps_per_sec(),
                    node2vec_sps: n2v.steps_per_sec(),
                })
        })
        .collect()
}

/// One tenancy level of the `service_saturation` sweep.
struct SaturationRow {
    tenants: usize,
    jobs: usize,
    steps: u64,
    secs: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl SaturationRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"tenants\": {}, \"jobs\": {}, \"steps\": {}, \"secs\": {:.6}, \
             \"steps_per_sec\": {:.1}, \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}}}",
            self.tenants,
            self.jobs,
            self.steps,
            self.secs,
            self.steps_per_sec(),
            self.p50_ms,
            self.p99_ms
        )
    }
}

/// The `service_saturation` scenario: a fixed node2vec workload split
/// across 1 → 8 concurrent tenants (two jobs each) on the CPU backend,
/// scheduled by the multi-tenant `WalkService`. Total work is constant
/// across tenancy levels, so aggregate steps/s isolates scheduler cost:
/// it must stay flat (or improve) as tenancy grows, while p50/p99 job
/// latency records the tail cost of contention. Each level keeps the
/// better of two repetitions to damp wall-clock noise on shared CI
/// runners.
fn measure_service_saturation(
    name: &str,
    g: &Graph,
    opts: &ReportOpts,
    rows: &mut Vec<SaturationRow>,
) {
    let app = Node2Vec::paper_params();
    let len = if opts.quick { 8 } else { 40 };
    let total_queries = 4096usize;
    let backend = Backend::Cpu {
        threads: 0,
        sampler: SamplerKind::InverseTransform,
    };
    for tenants in [1usize, 2, 4, 8] {
        let mut best: Option<SaturationRow> = None;
        for rep in 0..2 {
            let pool = backend.build_pool(g, &app, opts.seed + rep, 1);
            let workers: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
            let mut service = WalkService::new(
                workers,
                ServiceConfig {
                    quantum: 2048,
                    ..Default::default()
                },
            );
            let jobs_per_tenant = 2usize;
            let per_job = total_queries / (tenants * jobs_per_tenant);
            let t = Instant::now();
            for tenant in 0..tenants {
                for j in 0..jobs_per_tenant {
                    let qs = QuerySet::n_queries(
                        g,
                        per_job,
                        len,
                        opts.seed ^ (((tenant * jobs_per_tenant + j) as u64) << 8),
                    );
                    service.submit(JobSpec::tenant(tenant as u32), qs);
                }
            }
            service.run_until_idle();
            let secs = t.elapsed().as_secs_f64();
            let stats = service.stats();
            let row = SaturationRow {
                tenants,
                jobs: tenants * jobs_per_tenant,
                steps: stats.total_steps,
                secs,
                p50_ms: stats.p50_latency_s * 1e3,
                p99_ms: stats.p99_latency_s * 1e3,
            };
            if best
                .as_ref()
                .is_none_or(|b| row.steps_per_sec() > b.steps_per_sec())
            {
                best = Some(row);
            }
        }
        let best = best.expect("two repetitions ran");
        eprintln!(
            "service_saturation {name}: {} tenants -> {} ({:.2} ms p99)",
            best.tenants,
            lightrw_bench::fmt_rate(best.steps_per_sec()),
            best.p99_ms
        );
        rows.push(best);
    }
}

/// One offered-load level of the `serve_latency` scenario.
struct ServeLatencyRow {
    /// Offered load as a multiple of the calibrated step capacity.
    offered_x: f64,
    /// Aggregate Poisson arrival rate across tenants, jobs/s.
    offered_jobs_per_s: f64,
    tenants: usize,
    submitted: u64,
    admitted: u64,
    shed_tenant_rate: u64,
    shed_queue_depth: u64,
    completed: usize,
    steps: u64,
    secs: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_queue_wait_ms: f64,
    p99_exec_ms: f64,
}

impl ServeLatencyRow {
    fn shed(&self) -> u64 {
        self.shed_tenant_rate + self.shed_queue_depth
    }

    fn shed_rate(&self) -> f64 {
        if self.submitted > 0 {
            self.shed() as f64 / self.submitted as f64
        } else {
            0.0
        }
    }

    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"offered_x\": {:.2}, \"offered_jobs_per_s\": {:.1}, \"tenants\": {}, \
             \"submitted\": {}, \"admitted\": {}, \"shed\": {}, \
             \"shed_tenant_rate\": {}, \"shed_queue_depth\": {}, \"shed_rate\": {:.4}, \
             \"completed\": {}, \"steps_per_sec\": {:.1}, \
             \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}, \
             \"p99_queue_wait_ms\": {:.3}, \"p99_exec_ms\": {:.3}}}",
            self.offered_x,
            self.offered_jobs_per_s,
            self.tenants,
            self.submitted,
            self.admitted,
            self.shed(),
            self.shed_tenant_rate,
            self.shed_queue_depth,
            self.shed_rate(),
            self.completed,
            self.steps_per_sec(),
            self.p50_ms,
            self.p99_ms,
            self.p99_queue_wait_ms,
            self.p99_exec_ms
        )
    }
}

/// SplitMix64: the load generator's arrival-time source. Hand-rolled so
/// the sweep is reproducible from `--seed` with no external RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One exponential inter-arrival draw (seconds) at `rate` arrivals/s —
/// the open-loop Poisson process behind the `serve_latency` sweep.
fn exp_interarrival(state: &mut u64, rate: f64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    -(1.0 - u).ln() / rate
}

/// The `serve_latency` scenario (DESIGN.md §13): the front door's
/// scheduler + admission-control pair under open-loop Poisson load,
/// in-process (no sockets, so the sweep isolates scheduling and shedding
/// from kernel TCP noise). A closed-loop burst first calibrates the
/// pool's step capacity; each level then offers `offered_x ×` that
/// capacity as fixed-shape jobs from four tenants, routing every arrival
/// through [`Admission::check`] exactly as `serve --listen` does.
///
/// The acceptance shape is graceful degradation: below 1× nothing sheds
/// and latency is flat; past 1× the shed rate climbs while the
/// admitted-job p99 stays bounded by the queue high-water — the
/// unbounded-queue alternative would show p99 growing with the window
/// length instead.
fn measure_serve_latency(
    name: &str,
    g: &Graph,
    opts: &ReportOpts,
    rows: &mut Vec<ServeLatencyRow>,
) {
    use lightrw::http::{Admission, AdmissionConfig, Verdict};

    let tenants = 4usize;
    let queries = 32usize;
    let len: u32 = if opts.quick { 8 } else { 24 };
    let cost = queries as u64 * len as u64;
    let backend = Backend::Cpu {
        threads: 0,
        sampler: SamplerKind::InverseTransform,
    };
    // A finite per-tenant pending-steps quota (8 jobs' worth) is what
    // makes the queue high-water meaningful: without it every admitted
    // job starts running immediately and the waiting queue — the thing
    // admission control watches — never fills, so overload shows up as
    // unbounded concurrency (and unbounded p99) instead of shedding.
    let service_cfg = ServiceConfig {
        quantum: 2048,
        tenant_pending_steps: 8 * cost,
    };

    // Calibrate: a saturating closed-loop burst measures the sustainable
    // steps/s that anchors the offered-load axis.
    let capacity = {
        let pool = backend.build_pool(g, &Uniform, opts.seed, 1);
        let workers: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
        let mut service = WalkService::new(workers, service_cfg);
        let t = Instant::now();
        for j in 0..24u64 {
            let qs = QuerySet::n_queries(g, queries, len, opts.seed ^ (j << 8));
            service.submit(JobSpec::tenant((j as usize % tenants) as u32), qs);
        }
        service.run_until_idle();
        let secs = t.elapsed().as_secs_f64().max(1e-6);
        service.stats().total_steps as f64 / secs
    };
    eprintln!(
        "serve_latency {name}: calibrated capacity {}",
        lightrw_bench::fmt_rate(capacity)
    );

    let window_s = if opts.quick { 0.4 } else { 1.5 };
    for offered_x in [0.25, 0.5, 1.0, 1.5, 2.0] {
        // Pre-draw the window's Poisson arrival times so generation cost
        // stays off the measured loop.
        let lambda = (capacity * offered_x / cost as f64).max(1e-6);
        let mut state = opts.seed ^ ((offered_x * 100.0) as u64).wrapping_mul(0x9e37);
        let mut arrivals = Vec::new();
        let mut at = 0.0f64;
        loop {
            at += exp_interarrival(&mut state, lambda);
            if at >= window_s {
                break;
            }
            arrivals.push(at);
        }

        let pool = backend.build_pool(g, &Uniform, opts.seed, 1);
        let workers: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
        let mut service = WalkService::new(workers, service_cfg);
        // Per-tenant rate 0.3× capacity (aggregate 1.2×) with a shallow
        // queue: past saturation the queue high-water sheds first, so
        // admitted jobs keep a bounded wait.
        let mut admission = Admission::new(AdmissionConfig {
            rate_steps_per_s: 0.3 * capacity,
            burst_steps: 4.0 * cost as f64,
            queue_high_water: 16,
        });
        let t0 = Instant::now();
        let mut next = 0usize;
        while next < arrivals.len() || !service.is_idle() {
            let now_s = t0.elapsed().as_secs_f64();
            while next < arrivals.len() && arrivals[next] <= now_s {
                let tenant = (next % tenants) as u32;
                let verdict = admission.check(tenant, cost, service.waiting_len(), Instant::now());
                if let Verdict::Admit = verdict {
                    let qs = QuerySet::n_queries(g, queries, len, opts.seed ^ ((next as u64) << 8));
                    service.submit_streaming(
                        JobSpec::tenant(tenant),
                        qs,
                        // Paths are dropped: the scenario measures
                        // scheduling latency, not collection.
                        Box::new(|_: u32, _: &[lightrw::graph::VertexId]| {}),
                    );
                }
                next += 1;
            }
            if service.is_idle() {
                if next < arrivals.len() {
                    // Open-loop gap with nothing running: sleep toward the
                    // next arrival instead of spinning.
                    let wait = arrivals[next] - t0.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait.min(0.002)));
                    }
                }
            } else {
                service.tick();
            }
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-6);
        let stats = service.stats();
        let row = ServeLatencyRow {
            offered_x,
            offered_jobs_per_s: lambda,
            tenants,
            submitted: arrivals.len() as u64,
            admitted: admission.admitted,
            shed_tenant_rate: admission.shed_tenant_rate,
            shed_queue_depth: admission.shed_queue_depth,
            completed: stats.completed_jobs,
            steps: stats.total_steps,
            secs,
            p50_ms: stats.p50_latency_s * 1e3,
            p99_ms: stats.p99_latency_s * 1e3,
            p99_queue_wait_ms: stats.p99_queue_wait_s * 1e3,
            p99_exec_ms: stats.p99_exec_s * 1e3,
        };
        eprintln!(
            "serve_latency {name}: {:.2}x offered -> {} admitted / {} shed ({:.0}% shed), \
             p99 {:.2} ms",
            row.offered_x,
            row.admitted,
            row.shed(),
            row.shed_rate() * 100.0,
            row.p99_ms
        );
        rows.push(row);
    }
}

/// One program × engine row of the `program_mix` scenario.
struct ProgramRow {
    program: String,
    engine: &'static str,
    steps: u64,
    paths: usize,
    secs: f64,
}

impl ProgramRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"program\": \"{}\", \"engine\": \"{}\", \"steps\": {}, \"paths\": {}, \
             \"secs\": {:.6}, \"steps_per_sec\": {:.1}}}",
            self.program,
            self.engine,
            self.steps,
            self.paths,
            self.secs,
            self.steps_per_sec()
        )
    }
}

/// The `program_mix` scenario: the composable walk-program surface
/// (DESIGN.md §8) on one workload — fixed-length (the control row), PPR
/// restarts, dead-end restarts and target termination — per backend.
/// Control flow rides the same hot path as the fixed walk, so the
/// fixed-vs-program steps/s gap isolates the cost of the restart draw
/// and the target probe.
fn measure_program_mix(name: &str, g: &Graph, opts: &ReportOpts, rows: &mut Vec<ProgramRow>) {
    let cap = if opts.quick { 16 } else { 64 };
    let targets = Arc::new(NeighborBitset::from_members(
        g.num_vertices(),
        (0..g.num_vertices()).step_by(13),
    ));
    let programs = [
        WalkProgram::fixed(cap),
        WalkProgram::ppr(0.15, cap),
        WalkProgram::ppr(0.15, cap).with_dead_end(DeadEndPolicy::Restart),
        WalkProgram::fixed(cap).with_targets(targets),
    ];
    for program in &programs {
        let qs = QuerySet::per_nonisolated_vertex(g, 1, opts.seed).with_program(program.clone());

        let cfg = BaselineConfig {
            seed: opts.seed,
            ..Default::default()
        };
        let engine = CpuEngine::new(g, &Uniform, cfg);
        let start = Instant::now();
        let (results, stats) = engine.run(&qs);
        rows.push(ProgramRow {
            program: format!("{name}/{program}"),
            engine: "cpu",
            steps: stats.steps,
            paths: results.len(),
            secs: start.elapsed().as_secs_f64(),
        });

        let sim = LightRwSim::new(
            g,
            &Uniform,
            LightRwConfig {
                seed: opts.seed,
                ..LightRwConfig::default()
            },
        );
        let start = Instant::now();
        let report = sim.run(&qs);
        rows.push(ProgramRow {
            program: format!("{name}/{program}"),
            engine: "hwsim-feeder",
            steps: report.steps,
            paths: report.results.len(),
            secs: start.elapsed().as_secs_f64(),
        });
    }
}

/// One scale of the `graph_scale` out-of-core sweep: a streamed pack to
/// a temp `.lrwpak`, then an mmap-backed multi-thread walk off that
/// file. `walk_peak_rss` vs `file_bytes` is the headline — the walk's
/// resident footprint must stay well below the file it samples from.
struct ScaleRow {
    dataset: String,
    sampler: String,
    vertices: usize,
    edges: usize,
    file_bytes: u64,
    pack_secs: f64,
    pack_peak_rss: u64,
    /// Sections backed by a live mapping (false = heap fallback host).
    mapped: bool,
    /// Resident bytes right after `load_packed`, before any walk.
    load_rss: u64,
    steps: u64,
    secs: f64,
    walk_peak_rss: u64,
}

impl ScaleRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Walk-phase peak RSS as a fraction of the packed file size; the
    /// out-of-core promise is that this stays < 1 at large scales.
    fn rss_over_file(&self) -> f64 {
        if self.file_bytes > 0 {
            self.walk_peak_rss as f64 / self.file_bytes as f64
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"sampler\": \"{}\", \"vertices\": {}, \"edges\": {}, \
             \"file_bytes\": {}, \"pack_secs\": {:.3}, \"pack_peak_rss\": {}, \
             \"mapped\": {}, \"load_rss\": {}, \"steps\": {}, \"secs\": {:.6}, \
             \"steps_per_sec\": {:.1}, \"walk_peak_rss\": {}, \"walk_rss_over_file\": {:.4}}}",
            self.dataset,
            self.sampler,
            self.vertices,
            self.edges,
            self.file_bytes,
            self.pack_secs,
            self.pack_peak_rss,
            self.mapped,
            self.load_rss,
            self.steps,
            self.secs,
            self.steps_per_sec(),
            self.walk_peak_rss,
            self.rss_over_file()
        )
    }
}

/// The `graph_scale` scenario: the out-of-core pipeline end to end, per
/// scale — stream-pack an RMAT dataset to a temp `.lrwpak` (bounded by
/// the sort chunk, DESIGN.md §10), mmap it back, and run a multi-thread
/// weighted walk per sampler straight off the mapping. RSS is probed
/// per phase (`VmHWM`, reset between phases) so the pack chunk cannot
/// mask the walk footprint. The temp file is removed per scale, so the
/// sweep's disk high-water mark is one packed graph.
fn measure_graph_scale(opts: &ReportOpts, rows: &mut Vec<ScaleRow>) {
    use lightrw::graph::pack::{pack_rmat_dataset, PackOptions};
    use lightrw::graph::packed::load_packed;
    use lightrw::graph::LoadMode;
    use lightrw_bench::rss;

    let scales: Vec<u32> = if opts.quick {
        vec![8, 10]
    } else {
        vec![12, 14, 16, 18, 20, 22]
    };
    for scale in scales {
        let name = format!("rmat-{scale}");
        let path = std::env::temp_dir().join(format!(
            "lightrw_scale_{scale}_{}.lrwpak",
            std::process::id()
        ));

        rss::reset_peak_rss();
        let t = Instant::now();
        let stats = pack_rmat_dataset(scale, opts.seed, &path, &PackOptions::default())
            .expect("pack rmat dataset");
        let pack_secs = t.elapsed().as_secs_f64();
        let pack_peak_rss = rss::peak_rss_bytes();
        eprintln!(
            "graph_scale {name}: packed |V|={} |E|={} -> {} bytes in {}",
            stats.vertices,
            stats.edges,
            stats.file_bytes,
            lightrw_bench::fmt_secs(pack_secs)
        );

        for sampler in [SamplerKind::InverseTransform, SamplerKind::AExpJ] {
            rss::reset_peak_rss();
            let loaded = load_packed(&path, LoadMode::Auto).expect("load packed graph");
            let load_rss = rss::current_rss_bytes();
            let g = &loaded.graph;
            let queries = if opts.quick { 10_000 } else { 100_000 }.min(g.num_vertices());
            let qs = QuerySet::n_queries(g, queries, 10, opts.seed);
            let cfg = BaselineConfig {
                threads: 0,
                sampler,
                seed: opts.seed,
            };
            let engine = CpuEngine::new(g, &StaticWeighted, cfg);
            let t = Instant::now();
            let (_, wstats) = engine.run(&qs);
            let row = ScaleRow {
                dataset: name.clone(),
                sampler: sampler.name(),
                vertices: stats.vertices,
                edges: stats.edges,
                file_bytes: stats.file_bytes,
                pack_secs,
                pack_peak_rss,
                mapped: loaded.mapped,
                load_rss,
                steps: wstats.steps,
                secs: t.elapsed().as_secs_f64(),
                walk_peak_rss: rss::peak_rss_bytes(),
            };
            eprintln!(
                "graph_scale {name}/{}: {} over {} threads, walk peak RSS {} MB \
                 ({:.0}% of file)",
                row.sampler,
                lightrw_bench::fmt_rate(row.steps_per_sec()),
                wstats.threads,
                row.walk_peak_rss >> 20,
                row.rss_over_file() * 100.0
            );
            rows.push(row);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// One partitioned-engine run of the `shard_scale` scenario. `shards = 0`
/// encodes the unsharded reference row (the K = 1 noise baseline).
struct ShardRow {
    dataset: String,
    shards: usize,
    /// Partition strategy name ("none" for the unsharded reference).
    strategy: &'static str,
    /// Executor threads the engine resolved to (1 = one executor on the
    /// calling thread, k = one pinned executor per shard).
    threads: usize,
    steps: u64,
    secs: f64,
    /// Boundary edges / all edges: the expected per-step hand-off
    /// probability under uniform edge use.
    crossing_expected: f64,
    hand_offs: u64,
    flushes: u64,
    transfer_bytes: u64,
}

impl ShardRow {
    fn steps_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.steps as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Hand-offs per executed step — the measured crossing rate.
    fn crossing_measured(&self) -> f64 {
        if self.steps > 0 {
            self.hand_offs as f64 / self.steps as f64
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"shards\": {}, \"strategy\": \"{}\", \
             \"threads\": {}, \"steps\": {}, \"secs\": {:.6}, \
             \"steps_per_sec\": {:.1}, \"crossing_expected\": {:.6}, \
             \"crossing_measured\": {:.6}, \"hand_offs\": {}, \"flushes\": {}, \
             \"transfer_bytes\": {}}}",
            self.dataset,
            self.shards,
            self.strategy,
            self.threads,
            self.steps,
            self.secs,
            self.steps_per_sec(),
            self.crossing_expected,
            self.crossing_measured(),
            self.hand_offs,
            self.flushes,
            self.transfer_bytes,
        )
    }
}

/// One plain-vs-varint packed-file size comparison.
struct CompressionRow {
    dataset: String,
    plain_bytes: u64,
    compressed_bytes: u64,
}

impl CompressionRow {
    fn ratio(&self) -> f64 {
        if self.plain_bytes > 0 {
            self.compressed_bytes as f64 / self.plain_bytes as f64
        } else {
            1.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"plain_bytes\": {}, \"compressed_bytes\": {}, \
             \"ratio\": {:.4}}}",
            self.dataset,
            self.plain_bytes,
            self.compressed_bytes,
            self.ratio()
        )
    }
}

/// `key=N` field of a sharded session's diagnostics line.
fn diag_field(diag: &str, key: &str) -> u64 {
    diag.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The `shard_scale` scenario: the partitioned engine (DESIGN.md §11–§12)
/// on one RMAT dataset against an unsharded reference row, sweeping shard
/// count, executor thread count and partition strategy:
///
/// - K ∈ {1, 2, 4} with one executor on the calling thread: K = 1 walks
///   the reference engine's paths through one shard lane, so it compares
///   like for like with the reference row; K ≥ 2 records the hand-off
///   rate and hand-off record bytes of the crossings.
/// - K ∈ {2, 4} with one pinned executor per shard: the parallel rows,
///   asserted in-bench to sample the reference engine's exact walks
///   before they are timed.
/// - The walk-aware partition strategy at the same K, whose *measured*
///   crossing rate is the number the partitioner optimizes.
///
/// A compression row (plain vs varint-packed file bytes) rides along.
/// The dataset floor is rmat-12 so the acceptance comparison (parallel
/// vs one-executor K = 2) always runs on a graph with enough work to
/// overlap, even under `--quick`.
fn measure_shard_scale(
    opts: &ReportOpts,
    rows: &mut Vec<ShardRow>,
    comp: &mut Vec<CompressionRow>,
) {
    use lightrw::graph::{pack, partition_graph, ShardStrategy};
    use lightrw::sharded::ShardedEngine;

    let scale = opts.scale.max(12);
    let name = format!("rmat-{scale}");
    let mut g = rmat_dataset(scale, opts.seed);
    g.build_prefix_cache();
    // The paper's flagship second-order app: hand-offs carry prev-row
    // payloads and each step does real sampling work, which is the
    // regime where overlapping crossings with compute pays.
    let app = Node2Vec::paper_params();
    let queries = if opts.quick { 20_000 } else { 100_000 };
    let qs = QuerySet::n_queries(&g, queries, 20, opts.seed);

    // The unsharded noise baseline: the walks every sharded row samples,
    // on the same graph and seed.
    let reference = ReferenceEngine::new(&g, &app, SamplerKind::InverseTransform, opts.seed);
    let reference_walks = reference.run(&qs);
    {
        let engine = &reference;
        let mut sink = CountingSink::default();
        let t = Instant::now();
        let (steps, _) = (engine as &dyn WalkEngine).stream_into(&qs, u64::MAX, &mut sink);
        rows.push(ShardRow {
            dataset: name.clone(),
            shards: 0,
            strategy: "none",
            threads: 1,
            steps,
            secs: t.elapsed().as_secs_f64(),
            crossing_expected: 0.0,
            hand_offs: 0,
            flushes: 0,
            transfer_bytes: 0,
        });
    }

    let configs: [(usize, usize, ShardStrategy); 7] = [
        (1, 1, ShardStrategy::Range),
        (2, 1, ShardStrategy::Range),
        (4, 1, ShardStrategy::Range),
        (2, 2, ShardStrategy::Range),
        (4, 4, ShardStrategy::Range),
        (2, 2, ShardStrategy::Walk),
        (4, 4, ShardStrategy::Walk),
    ];
    for (k, threads, strategy) in configs {
        let engine = ShardedEngine::new(
            partition_graph(&g, k, strategy),
            &app,
            SamplerKind::InverseTransform,
            opts.seed,
        )
        .with_shard_threads(threads);
        let crossing_expected = engine.sharded().crossing_rate();
        if threads > 1 {
            // Schedule-independence gate: the parallel executors must
            // sample the reference engine's walks exactly before their
            // timing row means anything.
            assert!(
                engine.run_collected(&qs) == reference_walks,
                "parallel schedule changed walks (k={k} threads={threads} {})",
                strategy.name()
            );
        }
        let mut sink = CountingSink::default();
        let t = Instant::now();
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(u64::MAX, &mut sink);
        }
        let secs = t.elapsed().as_secs_f64();
        let diag = session.diagnostics().unwrap_or_default();
        let row = ShardRow {
            dataset: name.clone(),
            shards: k,
            strategy: strategy.name(),
            threads,
            steps: session.steps_done(),
            secs,
            crossing_expected,
            hand_offs: diag_field(&diag, "hand-offs="),
            flushes: diag_field(&diag, "flushes="),
            transfer_bytes: diag_field(&diag, "transfer-bytes="),
        };
        eprintln!(
            "shard_scale {name} k={k} threads={threads} {}: {} wall, \
             crossing {:.4} (expected {:.4}), {} hand-off bytes",
            strategy.name(),
            lightrw_bench::fmt_rate(row.steps_per_sec()),
            row.crossing_measured(),
            row.crossing_expected,
            row.transfer_bytes,
        );
        rows.push(row);
    }

    // The varint neighbor-list shrink on the same dataset.
    let pid = std::process::id();
    let plain_path = std::env::temp_dir().join(format!("lightrw_shard_plain_{pid}.lrwpak"));
    let comp_path = std::env::temp_dir().join(format!("lightrw_shard_varint_{pid}.lrwpak"));
    let plain_bytes =
        pack::pack_graph_with(&mut g, false, 0, ShardStrategy::Range, false, &plain_path)
            .expect("pack plain");
    let compressed_bytes =
        pack::pack_graph_with(&mut g, false, 0, ShardStrategy::Range, true, &comp_path)
            .expect("pack varint");
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&comp_path);
    let row = CompressionRow {
        dataset: name,
        plain_bytes,
        compressed_bytes,
    };
    eprintln!(
        "shard_scale compression: {} -> {} bytes ({:.1}% of plain)",
        row.plain_bytes,
        row.compressed_bytes,
        row.ratio() * 100.0
    );
    comp.push(row);
}

/// Pull the `"throughput": [...]` rows (one per line, as this binary
/// writes them) out of a previous report for the before/after embedding.
fn extract_rows(json: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let mut in_rows = false;
    for line in json.lines() {
        let t = line.trim();
        if t.starts_with("\"throughput\"") {
            in_rows = true;
            continue;
        }
        if in_rows {
            if t == "]" || t == "]," {
                break;
            }
            rows.push(t.trim_end_matches(',').to_string());
        }
    }
    rows
}

fn main() {
    let opts = ReportOpts::from_args();
    let mut rows = Vec::new();

    // `graph_scale` builds its own packed datasets on disk; only the
    // in-memory scenarios need the stand-in graphs materialized here.
    let needs_datasets = opts.runs("hotpath")
        || opts.runs("service")
        || opts.runs("program_mix")
        || opts.runs("serve_latency");
    let datasets: Vec<(String, Graph)> = if !needs_datasets {
        Vec::new()
    } else if opts.quick {
        vec![(
            format!("rmat-{}", opts.scale),
            rmat_dataset(opts.scale, opts.seed),
        )]
    } else {
        vec![
            (
                format!("rmat-{}", opts.scale),
                rmat_dataset(opts.scale, opts.seed),
            ),
            (
                "youtube".to_string(),
                DatasetProfile::youtube().stand_in(opts.scale, opts.seed),
            ),
            (
                "orkut".to_string(),
                DatasetProfile::orkut().stand_in(opts.scale.saturating_sub(1), opts.seed),
            ),
        ]
    };

    let mut written: Vec<&str> = Vec::new();
    let mut mixed_rows = Vec::new();
    let mut sim_scale_rows = Vec::new();
    if opts.runs("hotpath") {
        for (name, g) in &datasets {
            eprintln!(
                "measuring {name}: |V|={} |E|={}",
                g.num_vertices(),
                g.num_edges()
            );
            measure(name, g, &opts, &mut rows);
            measure_mixed(name, g, &opts, &mut mixed_rows);
        }
        // Instance scaling on the lead dataset only: it measures the
        // modeled pipeline replication, not the graph.
        let (name, g) = &datasets[0];
        measure_sim_scaling(name, g, &opts, &mut sim_scale_rows);
    }

    // The saturation sweep runs on the lead dataset only: it measures the
    // scheduler, not the graph.
    let mut saturation_rows = Vec::new();
    if opts.runs("service") {
        let (name, g) = &datasets[0];
        measure_service_saturation(name, g, &opts, &mut saturation_rows);
    }

    // The program mix likewise: it measures control-flow overhead on the
    // hot path, not the graph.
    let mut program_rows = Vec::new();
    if opts.runs("program_mix") {
        let (name, g) = &datasets[0];
        measure_program_mix(name, g, &opts, &mut program_rows);
    }

    // The serving sweep likewise: it measures admission + scheduling
    // under load, not the graph.
    let mut serve_rows = Vec::new();
    if opts.runs("serve_latency") {
        let (name, g) = &datasets[0];
        measure_serve_latency(name, g, &opts, &mut serve_rows);
    }

    // The out-of-core sweep packs its own datasets to disk.
    let mut scale_rows = Vec::new();
    if opts.runs("graph_scale") {
        measure_graph_scale(&opts, &mut scale_rows);
    }

    // The partitioned-engine sweep builds its own graph too.
    let mut shard_rows = Vec::new();
    let mut compression_rows = Vec::new();
    if opts.runs("shard_scale") {
        measure_shard_scale(&opts, &mut shard_rows, &mut compression_rows);
    }

    if opts.runs("hotpath") {
        let baseline_rows = opts
            .baseline
            .as_ref()
            .map(|p| extract_rows(&std::fs::read_to_string(p).expect("read --baseline file")))
            .unwrap_or_default();

        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"bench\": \"hotpath\",");
        // host_cores contextualizes the thread-scaling rows: on a 1-core
        // CI runner every requested worker count resolves to one lane, so
        // readers (and the artifact diff) need the host size to interpret
        // the sweep.
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _ = writeln!(
            json,
            "  \"config\": {{\"scale\": {}, \"seed\": {}, \"quick\": {}, \"host_cores\": {}}},",
            opts.scale, opts.seed, opts.quick, host_cores
        );
        if !baseline_rows.is_empty() {
            json.push_str("  \"baseline\": [\n");
            for (i, r) in baseline_rows.iter().enumerate() {
                let sep = if i + 1 < baseline_rows.len() { "," } else { "" };
                let _ = writeln!(json, "    {r}{sep}");
            }
            json.push_str("  ],\n");
        }
        json.push_str("  \"throughput\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{sep}", r.to_json());
        }
        json.push_str("  ],\n");
        let gap_rows = node2vec_gaps(&rows);
        json.push_str("  \"node2vec_gap\": [\n");
        for (i, r) in gap_rows.iter().enumerate() {
            let sep = if i + 1 < gap_rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{sep}", r.to_json());
        }
        json.push_str("  ],\n");
        json.push_str("  \"sim_instance_scaling\": [\n");
        for (i, r) in sim_scale_rows.iter().enumerate() {
            let sep = if i + 1 < sim_scale_rows.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(json, "    {}{sep}", r.to_json());
        }
        json.push_str("  ],\n");
        json.push_str("  \"mixed_engine\": [\n");
        for (i, r) in mixed_rows.iter().enumerate() {
            let sep = if i + 1 < mixed_rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{sep}", r.to_json());
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&opts.out, &json).expect("write report");
        written.push(&opts.out);
    }

    // The service artifact: one file per concern, so the soak/saturation
    // history diffs independently of the hot-path numbers.
    if opts.runs("service") {
        let mut service_json = String::from("{\n");
        let _ = writeln!(service_json, "  \"bench\": \"service_saturation\",");
        let _ = writeln!(
            service_json,
            "  \"config\": {{\"scale\": {}, \"seed\": {}, \"quick\": {}, \
             \"backend\": \"cpu\", \"dataset\": \"{}\"}},",
            opts.scale, opts.seed, opts.quick, datasets[0].0
        );
        service_json.push_str("  \"saturation\": [\n");
        for (i, r) in saturation_rows.iter().enumerate() {
            let sep = if i + 1 < saturation_rows.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(service_json, "    {}{sep}", r.to_json());
        }
        service_json.push_str("  ]\n}\n");
        std::fs::write(&opts.out_service, &service_json).expect("write service report");
        written.push(&opts.out_service);
    }

    // The program artifact: the walk-program surface per backend.
    if opts.runs("program_mix") {
        let mut program_json = String::from("{\n");
        let _ = writeln!(program_json, "  \"bench\": \"program_mix\",");
        let _ = writeln!(
            program_json,
            "  \"config\": {{\"scale\": {}, \"seed\": {}, \"quick\": {}, \
             \"dataset\": \"{}\"}},",
            opts.scale, opts.seed, opts.quick, datasets[0].0
        );
        program_json.push_str("  \"programs\": [\n");
        for (i, r) in program_rows.iter().enumerate() {
            let sep = if i + 1 < program_rows.len() { "," } else { "" };
            let _ = writeln!(program_json, "    {}{sep}", r.to_json());
        }
        program_json.push_str("  ]\n}\n");
        std::fs::write(&opts.out_programs, &program_json).expect("write program report");
        written.push(&opts.out_programs);
    }

    // The serving artifact: the front-door offered-load sweep, one row
    // per level so the degradation shape diffs across history.
    if opts.runs("serve_latency") {
        let mut serve_json = String::from("{\n");
        let _ = writeln!(serve_json, "  \"bench\": \"serve_latency\",");
        let _ = writeln!(
            serve_json,
            "  \"config\": {{\"scale\": {}, \"seed\": {}, \"quick\": {}, \
             \"backend\": \"cpu\", \"dataset\": \"{}\", \"app\": \"uniform\"}},",
            opts.scale, opts.seed, opts.quick, datasets[0].0
        );
        serve_json.push_str("  \"sweep\": [\n");
        for (i, r) in serve_rows.iter().enumerate() {
            let sep = if i + 1 < serve_rows.len() { "," } else { "" };
            let _ = writeln!(serve_json, "    {}{sep}", r.to_json());
        }
        serve_json.push_str("  ]\n}\n");
        std::fs::write(&opts.out_serve, &serve_json).expect("write serve report");
        written.push(&opts.out_serve);
    }

    // The out-of-core artifact: the pack → mmap → walk sweep per scale,
    // plus the partitioned-engine (`shard_scale`) sections when selected.
    if opts.runs("graph_scale") || opts.runs("shard_scale") {
        let mut scale_json = String::from("{\n");
        let _ = writeln!(scale_json, "  \"bench\": \"graph_scale\",");
        let _ = writeln!(
            scale_json,
            "  \"config\": {{\"seed\": {}, \"quick\": {}, \"app\": \"StaticWeighted\", \
             \"engine\": \"cpu\", \"threads\": 0}},",
            opts.seed, opts.quick
        );
        scale_json.push_str("  \"scales\": [\n");
        for (i, r) in scale_rows.iter().enumerate() {
            let sep = if i + 1 < scale_rows.len() { "," } else { "" };
            let _ = writeln!(scale_json, "    {}{sep}", r.to_json());
        }
        scale_json.push_str("  ],\n");
        scale_json.push_str("  \"shards\": [\n");
        for (i, r) in shard_rows.iter().enumerate() {
            let sep = if i + 1 < shard_rows.len() { "," } else { "" };
            let _ = writeln!(scale_json, "    {}{sep}", r.to_json());
        }
        scale_json.push_str("  ],\n");
        scale_json.push_str("  \"compression\": [\n");
        for (i, r) in compression_rows.iter().enumerate() {
            let sep = if i + 1 < compression_rows.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(scale_json, "    {}{sep}", r.to_json());
        }
        scale_json.push_str("  ]\n}\n");
        std::fs::write(&opts.out_scale, &scale_json).expect("write scale report");
        written.push(&opts.out_scale);
    }

    if opts.runs("hotpath") {
        println!(
            "{:<10} {:<15} {:<13} {:>8} {:>12}",
            "dataset", "app", "engine", "threads", "steps/s"
        );
        for r in &rows {
            println!(
                "{:<10} {:<15} {:<13} {:>8} {:>12}",
                r.dataset,
                r.app,
                r.engine,
                r.threads,
                lightrw_bench::fmt_rate(r.steps_per_sec())
            );
        }
        println!();
        println!("{:<10} {:<16} {:>8}", "dataset", "node2vec gap", "uni/n2v");
        for r in &node2vec_gaps(&rows) {
            println!("{:<10} {:<16} {:>7.2}x", r.dataset, r.sampler, r.gap());
        }
        println!();
        println!("{:<10} {:>9} {:>12}", "sim scale", "instances", "steps/s*");
        for r in &sim_scale_rows {
            println!(
                "{:<10} {:>9} {:>12}",
                r.dataset,
                r.instances,
                lightrw_bench::fmt_rate(r.steps_per_sec())
            );
        }
        println!("(* model time, not host wall clock)");
        println!();
        println!(
            "{:<38} {:>7} {:>9} {:>12}",
            "mixed-engine (interleaved sessions)", "batches", "steps", "steps/s"
        );
        for r in &mixed_rows {
            println!(
                "{:<38} {:>7} {:>9} {:>12}",
                r.engine,
                r.batches,
                r.steps,
                lightrw_bench::fmt_rate(r.steps_per_sec())
            );
        }
        println!();
    }
    if opts.runs("service") {
        println!(
            "{:<28} {:>6} {:>12} {:>11} {:>11}",
            "service saturation (cpu)", "jobs", "steps/s", "p50 ms", "p99 ms"
        );
        for r in &saturation_rows {
            println!(
                "{:<28} {:>6} {:>12} {:>11.3} {:>11.3}",
                format!("{} tenant(s)", r.tenants),
                r.jobs,
                lightrw_bench::fmt_rate(r.steps_per_sec()),
                r.p50_ms,
                r.p99_ms
            );
        }
        println!();
    }
    if opts.runs("program_mix") {
        println!(
            "{:<48} {:<13} {:>9} {:>7} {:>12}",
            "program mix", "engine", "steps", "paths", "steps/s"
        );
        for r in &program_rows {
            println!(
                "{:<48} {:<13} {:>9} {:>7} {:>12}",
                r.program,
                r.engine,
                r.steps,
                r.paths,
                lightrw_bench::fmt_rate(r.steps_per_sec())
            );
        }
    }
    if opts.runs("graph_scale") {
        println!(
            "{:<10} {:<18} {:>10} {:>11} {:>12} {:>13} {:>9}",
            "out-of-core",
            "sampler",
            "file MB",
            "pack RSS MB",
            "steps/s",
            "walk RSS MB",
            "RSS/file"
        );
        for r in &scale_rows {
            println!(
                "{:<10} {:<18} {:>10} {:>11} {:>12} {:>13} {:>8.0}%",
                r.dataset,
                r.sampler,
                r.file_bytes >> 20,
                r.pack_peak_rss >> 20,
                lightrw_bench::fmt_rate(r.steps_per_sec()),
                r.walk_peak_rss >> 20,
                r.rss_over_file() * 100.0
            );
        }
        println!();
    }
    if opts.runs("shard_scale") {
        println!(
            "{:<10} {:>6} {:>12} {:>10} {:>10} {:>12} {:>12}",
            "sharded", "shards", "steps/s", "cross exp", "cross obs", "xfer bytes", "flushes"
        );
        for r in &shard_rows {
            let label = if r.shards == 0 {
                "unsharded".to_string()
            } else {
                format!("{}", r.shards)
            };
            println!(
                "{:<10} {:>6} {:>12} {:>10.4} {:>10.4} {:>12} {:>12}",
                r.dataset,
                label,
                lightrw_bench::fmt_rate(r.steps_per_sec()),
                r.crossing_expected,
                r.crossing_measured(),
                r.transfer_bytes,
                r.flushes
            );
        }
        for c in &compression_rows {
            println!(
                "{:<10} varint column: {} -> {} bytes ({:.1}% of plain)",
                c.dataset,
                c.plain_bytes,
                c.compressed_bytes,
                c.ratio() * 100.0
            );
        }
        println!();
    }
    eprintln!("wrote {}", written.join(" and "));
}
