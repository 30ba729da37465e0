//! Socket-level serving benchmark for the LightRW HTTP front door.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload deepwalk_corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process boots `lightrw::http::serve` over a `Backend` pool on
//! `127.0.0.1:0`, drives it over real TCP sockets from at most two
//! client threads, audits every streamed NDJSON response, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer breakdown of a
//! traced run (`--trace 1`). The last stdout line is one JSON object.
//! See README.md for the workloads and every metric.

mod client;
mod host;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lightrw::baseline::signal;
use lightrw::graph::packed::{load_packed, load_packed_sharded, PackedGraph};
use lightrw::graph::{LoadMode, PackedShardedGraph};
use lightrw::http::{AdmissionConfig, ServeConfig};
use lightrw::service::ServiceConfig;
use lightrw::walker::{WalkApp, WalkEngine};
use lightrw::{Backend, ShardedEngine};

use load::{JobRecord, Spool, Window};
use trace::{EngineLog, TracedEngine};
use workloads::{Class, Engine, Residency, Workload, DATA_DIR};

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 5;
/// Set-ups repeat for at least this long: a set-up of a few
/// milliseconds timed straight after process start read 2–4 times
/// slower than later ones, by an amount that depended on the run
/// before it.
const SETUP_SPAN: Duration = Duration::from_secs(1);
/// Traffic before each measured window, not scored.
const WARMUP: Duration = Duration::from_secs(1);
/// Engines in the scheduler's pool (the CLI's `serve` default).
const WORKERS: usize = 2;
/// The pool's walk seed (the CLI's `serve` default).
const POOL_SEED: u64 = 42;

/// Admission limits far above every workload's offered load: a shed
/// job counts as failed, and the benchmark measures serving, not
/// shedding.
pub(crate) fn serve_config() -> ServeConfig {
    ServeConfig {
        service: ServiceConfig::default(),
        admission: AdmissionConfig {
            rate_steps_per_s: 1e12,
            burst_steps: 1e12,
            queue_high_water: 1 << 16,
        },
        drain: Duration::from_secs(5),
        io_timeout: Duration::from_millis(100),
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Dataset generation runs in a child process so its memory never
    // shows in the measured process's peak RSS.
    if argv.first().map(String::as_str) == Some("--prepare") {
        let done = argv
            .get(1)
            .and_then(|n| workloads::find(n))
            .ok_or_else(|| "--prepare needs a workload".to_string())
            .and_then(|w| w.datasets().try_for_each(|d| d.generate()));
        if let Err(e) = done {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    if let Err(e) = parse_args(&argv).and_then(run) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Generate the workload's datasets if any is missing (untimed).
fn prepare(w: &Workload) -> Result<(), String> {
    if w.datasets().all(|d| d.path().exists()) {
        return Ok(());
    }
    eprintln!("generating datasets for {} into {DATA_DIR}/", w.name);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["--prepare", w.name])
        .status()
        .map_err(|e| format!("dataset generator: {e}"))?;
    if !status.success() {
        return Err(format!("dataset generator failed: {status}"));
    }
    Ok(())
}

/// The served graph: loaded once per set-up.
struct Loaded {
    packed: PackedGraph,
    sharded: Option<PackedShardedGraph>,
}

fn load(w: &Workload) -> Result<Loaded, String> {
    let mode = match w.residency {
        Residency::Mapped => LoadMode::Auto,
        Residency::Heap => LoadMode::Heap,
    };
    let path = w.dataset.path();
    let packed = load_packed(&path, mode).map_err(|e| format!("{}: {e}", path.display()))?;
    let sharded = match w.engine {
        Engine::Cpu => None,
        Engine::Sharded => {
            Some(load_packed_sharded(&path, mode).map_err(|e| format!("{}: {e}", path.display()))?)
        }
    };
    Ok(Loaded { packed, sharded })
}

/// The pool is server configuration, not input: its seed is the CLI
/// `serve` default in every run, so only the job stream varies by seed.
fn build_pool<'g>(loaded: &'g Loaded, app: &'g dyn WalkApp) -> Vec<Box<dyn WalkEngine + 'g>> {
    let seed = POOL_SEED;
    let cpu = Backend::parse("cpu").expect("cpu is a backend name");
    match &loaded.sharded {
        None => cpu.build_pool(&loaded.packed.graph, app, seed, WORKERS),
        // The file's own partition: `Backend::Sharded` would re-partition
        // the graph in memory for every worker. The engine's default
        // sequential interleave: on two cores, two pinned executors
        // contend with the server and client threads (README.md).
        Some(p) => (0..WORKERS as u64)
            .map(|i| {
                let engine = ShardedEngine::new(
                    p.sharded.clone(),
                    app,
                    lightrw::walker::SamplerKind::InverseTransform,
                    seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Box::new(engine) as Box<dyn WalkEngine + 'g>
            })
            .collect(),
    }
}

/// Timings of one set-up: graph load, pool build, listener bind.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub load: Duration,
    pub pool: Duration,
    pub bind: Duration,
}

impl SetupTimes {
    fn stamp(t0: Instant, t1: Instant, t2: Instant, t3: Instant) -> Self {
        Self {
            load: t1 - t0,
            pool: t2 - t1,
            bind: t3 - t2,
        }
    }

    pub fn total(&self) -> f64 {
        (self.load + self.pool + self.bind).as_secs_f64()
    }
}

fn bind() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}

/// What one serving phase produced.
pub struct Phase {
    pub window: Window,
    pub records: Vec<JobRecord>,
    /// `GET /stats` after the traffic.
    pub stats: Option<String>,
    /// Spooled paths to validate, by the class of job that streamed them.
    pub spools: Vec<(workloads::Class, PathBuf)>,
}

/// Serve `engines` on `listener` while the clients run one warm-up plus
/// `secs` of traffic, then drain and return what the clients saw.
fn serve_phase(
    w: &Workload,
    listener: TcpListener,
    engines: Vec<&dyn WalkEngine>,
    graph: &lightrw::graph::Graph,
    seed: u64,
    secs: Duration,
    tag: &str,
) -> Result<Phase, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (batch, open) = w.plans(seed, WARMUP + secs);
    let spool_path =
        |client: &str| PathBuf::from(DATA_DIR).join(format!("spool-{}-{tag}-{client}.bin", w.name));
    let spool = |client: &str, plans: &[workloads::Plan]| -> Result<Option<Spool>, String> {
        if w.validates() && !plans.is_empty() {
            Spool::create(&spool_path(client)).map(Some)
        } else {
            Ok(None)
        }
    };
    let (batch_spool, open_spool) = (spool("batch", &batch)?, spool("open", &open)?);
    let clients = usize::from(!batch.is_empty()) + usize::from(!open.is_empty());
    let remaining = AtomicUsize::new(clients);
    let stats = Mutex::new(None);
    let cfg = serve_config();

    signal::clear_shutdown();
    let origin = Instant::now();
    let window = Window {
        origin,
        start: origin + WARMUP,
        end: origin + WARMUP + secs,
    };
    let (records, spools, served) = std::thread::scope(|s| {
        let last_out = || LastOut {
            remaining: &remaining,
            addr,
            stats: &stats,
        };
        let closed = (!batch.is_empty()).then(|| {
            let guard = last_out();
            s.spawn(move || {
                let _guard = guard;
                load::closed_loop(addr, &batch, &window, batch_spool)
            })
        });
        let opened = (!open.is_empty()).then(|| {
            let guard = last_out();
            s.spawn(move || {
                let _guard = guard;
                load::open_loop(addr, &open, &window, open_spool)
            })
        });
        let served = lightrw::http::serve(listener, engines, graph, &cfg);
        let mut records = Vec::new();
        let mut spools = Vec::new();
        let clients = [
            (closed, "batch", Class::Batch),
            (opened, "open", Class::Small),
        ];
        for (handle, client, class) in clients {
            let Some(handle) = handle else { continue };
            let (r, spool) = handle.join().expect("a client thread panicked");
            records.extend(r);
            if let Some(spool) = spool {
                spool.finish()?;
                spools.push((class, spool_path(client)));
            }
        }
        Ok::<_, String>((records, spools, served))
    })?;
    served?;
    let stats = stats.into_inner().expect("stats lock poisoned");
    Ok(Phase {
        window,
        records,
        stats,
        spools,
    })
}

/// Held by each client thread; the last one out fetches `/stats` and
/// stops the server, even if its thread unwinds.
struct LastOut<'a> {
    remaining: &'a AtomicUsize,
    addr: SocketAddr,
    stats: &'a Mutex<Option<String>>,
}

impl Drop for LastOut<'_> {
    fn drop(&mut self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            if let Ok(doc) = load::get_stats(self.addr) {
                if let Ok(mut slot) = self.stats.lock() {
                    *slot = Some(doc);
                }
            }
            signal::request_shutdown();
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let w = args.workload;
    prepare(w)?;
    let fingerprint = host::Fingerprint::probe();
    let app = w.app.build();

    // Set up several times, report the median, keep the last.
    let mut setups = Vec::with_capacity(SETUPS);
    let started = Instant::now();
    while setups.len() + 1 < SETUPS || started.elapsed() < SETUP_SPAN {
        let t0 = Instant::now();
        let loaded = load(w)?;
        let t1 = Instant::now();
        let _pool = build_pool(&loaded, app.as_ref());
        let t2 = Instant::now();
        let _listener = bind()?;
        setups.push(SetupTimes::stamp(t0, t1, t2, Instant::now()));
    }
    let t0 = Instant::now();
    let loaded = load(w)?;
    let t1 = Instant::now();
    let pool = build_pool(&loaded, app.as_ref());
    let t2 = Instant::now();
    let listener = bind()?;
    setups.push(SetupTimes::stamp(t0, t1, t2, Instant::now()));
    let graph = &loaded.packed.graph;
    let secs = Duration::from_secs(args.seconds);

    let mut out = report::Output::new(w, &fingerprint, &args, &setups);
    if !args.trace {
        let bare: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
        let mut phase = serve_phase(w, listener, bare, graph, args.seed, secs, "run")?;
        // Before validation maps the reference graph and reads the spool.
        let peak_rss_mb = host::peak_rss_mb();
        out.validate(w, &loaded, app.as_ref(), &mut phase)?;
        out.end_to_end(w, &phase, peak_rss_mb);
    } else {
        // Untraced and traced halves of the same traffic, on two server
        // lifetimes over one pool; their difference is the overhead.
        let half = (secs / 2).max(Duration::from_secs(1));
        let bare: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
        let mut untraced = serve_phase(w, listener, bare, graph, args.seed, half, "untraced")?;
        let log = EngineLog::new(Instant::now());
        let traced: Vec<TracedEngine> = pool
            .iter()
            .map(|e| TracedEngine::new(e.as_ref(), &log))
            .collect();
        let engines: Vec<&dyn WalkEngine> = traced.iter().map(|e| e as &dyn WalkEngine).collect();
        let seed = args.seed ^ 0x7472_6163_6564; // distinct jobs, same stream law
        let mut traced_phase = serve_phase(w, bind()?, engines, graph, seed, half, "traced")?;
        out.validate(w, &loaded, app.as_ref(), &mut untraced)?;
        out.validate(w, &loaded, app.as_ref(), &mut traced_phase)?;
        let oob = report::out_of_band(w, graph, args.seed);
        out.per_layer(w, &untraced, &traced_phase, &log, &loaded, &oob);
        out.write_trace(w, &args, &traced_phase, &log)?;
    }
    out.print();
    Ok(())
}
