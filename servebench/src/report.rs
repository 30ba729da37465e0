//! Turning what the clients and the engine trace saw into metrics, the
//! per-layer table, the trace file and the final JSON line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lightrw::graph::packed::load_packed;
use lightrw::graph::{Graph, LoadMode};
use lightrw::walker::path::validate_path;
use lightrw::walker::{QuerySet, WalkApp};

use crate::host::Fingerprint;
use crate::load::{self, JobRecord};
use crate::stats::{mean, median, tail};
use crate::trace::{EngineLog, SessionTrace};
use crate::workloads::{Class, Workload, DATA_DIR};
use crate::{Args, Loaded, Phase, SetupTimes};

/// An open-loop run whose generator sent its 99th-percentile job later
/// than this behind schedule is invalid: the offered load was not the
/// one the workload defines.
const LATE_LIMIT_MS: f64 = 20.0;

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// Out-of-band timings of single layers on the workload's own request.
pub struct OutOfBand {
    pub wire_parse_us: f64,
    pub admission_check_us: f64,
    pub jobspec_parse_us: f64,
    pub query_build_ms: f64,
}

pub struct Output<'a> {
    workload: &'static str,
    fingerprint: &'a Fingerprint,
    seed: u64,
    setups: Vec<SetupTimes>,
    attempted: usize,
    failed: usize,
    /// Jobs whose output was wrong (audit or path validation), as
    /// opposed to shed.
    wrong: usize,
    validated_paths: u64,
    late_ms: Vec<f64>,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Jobs of `class` due inside the window that completed and passed the
/// audit: the latency sample.
fn sample(phase: &Phase, class: Class) -> Vec<&JobRecord> {
    phase
        .records
        .iter()
        .filter(|r| r.class == class && phase.window.contains(r.due) && r.ok())
        .collect()
}

/// Audited steps delivered per second, all tenants. A corpus job's
/// paths reach the client in a burst as its walkers finish, so a fixed
/// window would count whole jobs or none at its edges. The rate is
/// instead measured between consecutive corpus-job completions inside
/// the window, over the jobs completing in each interval (each job's
/// steps count at its `done`), and the median interval rate is
/// reported. With no corpus jobs, the whole window is one interval.
fn throughput(phase: &Phase) -> (f64, String) {
    let w = &phase.window;
    let ok: Vec<&JobRecord> = phase.records.iter().filter(|r| r.ok()).collect();
    let mut ends: Vec<Instant> = ok
        .iter()
        .filter(|r| r.class == Class::Batch)
        .filter_map(|r| r.end_at)
        .filter(|&t| w.contains(t))
        .collect();
    ends.sort();
    if ends.len() < 2 {
        ends = vec![w.start, w.end];
    }
    let rates: Vec<f64> = ends
        .windows(2)
        .map(|p| {
            let steps: u64 = ok
                .iter()
                .filter(|r| r.end_at.is_some_and(|t| t > p[0] && t <= p[1]))
                .map(|r| r.steps)
                .sum();
            steps as f64 / (p[1] - p[0]).as_secs_f64()
        })
        .collect();
    let note = format!(
        "median of {} intervals between corpus-job completions",
        rates.len()
    );
    (median(&rates), note)
}

/// `(value, note)` of a percentile under the ten-beyond rule.
fn pct(values: &[f64], q: f64) -> (f64, String) {
    match tail(values, q) {
        Some((used, v)) if used + 1e-12 >= q => (v, format!("n={}", values.len())),
        Some((used, v)) => (
            v,
            format!(
                "n={}: p{:.1}, too few samples for p{:.0}",
                values.len(),
                used * 100.0,
                q * 100.0
            ),
        ),
        None => (0.0, "no samples".into()),
    }
}

impl<'a> Output<'a> {
    pub fn new(
        w: &Workload,
        fingerprint: &'a Fingerprint,
        args: &Args,
        setups: &[SetupTimes],
    ) -> Self {
        Self {
            workload: w.name,
            fingerprint,
            seed: args.seed,
            setups: setups.to_vec(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            validated_paths: 0,
            late_ms: Vec::new(),
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            note,
        });
    }

    /// Validate every spooled fixed-length path against the original-id
    /// graph, fail the jobs whose paths do not validate, and count the
    /// phase's jobs.
    pub fn validate(
        &mut self,
        w: &Workload,
        loaded: &Loaded,
        app: &dyn WalkApp,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let original;
        let (reference, relabeling): (&Graph, _) = match w.original {
            Some(d) => {
                original = load_packed(d.path(), LoadMode::Auto)
                    .map_err(|e| format!("{}: {e}", d.path().display()))?;
                let map = loaded
                    .packed
                    .relabeling
                    .as_ref()
                    .ok_or("the served file carries no relabeling")?;
                (&original.graph, Some(map))
            }
            None => (&loaded.packed.graph, None),
        };
        let mut mapped = Vec::new();
        for (class, spool) in std::mem::take(&mut phase.spools) {
            let mut bad = Vec::new();
            load::read_spool(&spool, |seq, path| {
                self.validated_paths += 1;
                let path = match relabeling {
                    Some(map) => {
                        mapped.clear();
                        mapped.extend(path.iter().map(|&v| map.old_id(v)));
                        &mapped[..]
                    }
                    None => path,
                };
                if validate_path(reference, app, path).is_err() {
                    bad.push(seq);
                }
            })?;
            let _ = std::fs::remove_file(&spool);
            for r in &mut phase.records {
                if r.class == class && bad.contains(&r.seq) && r.error.is_none() {
                    r.error = Some("streamed a path that is not a walk of the graph".into());
                }
            }
        }
        for r in &phase.records {
            self.attempted += 1;
            if !r.ok() {
                self.failed += 1;
                self.wrong += usize::from(!r.shed());
                if self.lines.len() < 20 {
                    self.lines.push(format!(
                        "failed job ({:?} #{}): {}",
                        r.class,
                        r.seq,
                        r.error.as_deref().unwrap_or("no done line")
                    ));
                }
            }
            if r.class == Class::Small {
                self.late_ms.push(ms(r.late));
            }
        }
        Ok(())
    }

    /// The end-to-end metrics of an untraced phase; `peak_rss_mb` is the
    /// process's peak resident set once its traffic ended.
    pub fn end_to_end(&mut self, w: &Workload, phase: &Phase, peak_rss_mb: f64) {
        let class = w.latency_class();
        let jobs = sample(phase, class);
        let (rate, note) = throughput(phase);
        self.push("steps_per_s", "steps/s", rate, note);
        let lat: Vec<f64> = jobs.iter().filter_map(|r| r.latency()).map(ms).collect();
        let ttfp: Vec<f64> = jobs.iter().filter_map(|r| r.ttfp()).map(ms).collect();
        let (v, n) = pct(&lat, 0.5);
        self.push("latency_p50_ms", "ms", v, n);
        // Printed for the reader; gated only through the traced run's
        // per-layer numbers, which carry no bound: across seeds their
        // spread exceeds the largest bound allowed (README.md).
        for (name, values, q) in [
            ("latency_p99_ms", &lat, 0.99),
            ("ttfp_p50_ms", &ttfp, 0.5),
            ("ttfp_p99_ms", &ttfp, 0.99),
        ] {
            let (v, n) = pct(values, q);
            self.lines
                .push(format!("{name} {v:.3} ms ({n}; not gated)"));
        }
        let totals: Vec<f64> = self.setups.iter().map(SetupTimes::total).collect();
        let note = format!("median of {} set-ups", totals.len());
        self.push("setup_s", "s", median(&totals), note);
        self.push("peak_rss_mb", "MiB", peak_rss_mb, "VmHWM".into());
    }

    /// The per-layer metrics and the blocking-path table of a traced
    /// run; `untraced` is the same traffic with tracing off.
    pub fn per_layer(
        &mut self,
        w: &Workload,
        untraced: &Phase,
        traced: &Phase,
        log: &EngineLog,
        loaded: &Loaded,
        oob: &OutOfBand,
    ) {
        let class = w.latency_class();
        // Client-side tails and first-path times of the untraced half:
        // too noisy across seeds to gate as end-to-end metrics.
        let base = sample(untraced, class);
        let lat: Vec<f64> = base.iter().filter_map(|r| r.latency()).map(ms).collect();
        let ttfp: Vec<f64> = base.iter().filter_map(|r| r.ttfp()).map(ms).collect();
        let (v, n) = pct(&lat, 0.99);
        self.push("latency_p99_ms", "ms", v, n);
        let (v, n) = pct(&ttfp, 0.5);
        self.push("ttfp_p50_ms", "ms", v, n);
        let (v, n) = pct(&ttfp, 0.99);
        self.push("ttfp_p99_ms", "ms", v, n);

        let jobs = sample(traced, class);
        let med = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> f64 {
            median(&jobs.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
        };
        let done = |f: fn(&crate::client::DoneLine) -> f64| -> Vec<f64> {
            jobs.iter().filter_map(|r| r.done.as_ref().map(f)).collect()
        };

        let load: Vec<f64> = self.setups.iter().map(|s| s.load.as_secs_f64()).collect();
        let pool: Vec<f64> = self.setups.iter().map(|s| s.pool.as_secs_f64()).collect();
        self.push("graph.load_s", "s", median(&load), String::new());
        self.push("graph.pool_build_s", "s", median(&pool), String::new());
        self.push(
            "walker.query.build_ms",
            "ms",
            oob.query_build_ms,
            "out of band".into(),
        );

        let connects: Vec<f64> = traced
            .records
            .iter()
            .filter_map(|r| r.connect)
            .map(ms)
            .collect();
        self.push(
            "http.connect_ms",
            "ms",
            median(&connects),
            format!("n={}", connects.len()),
        );
        self.push(
            "http.admit_ms",
            "ms",
            med(&|r| r.admit().map(ms)),
            String::new(),
        );
        let lag = |r: &JobRecord| -> Option<f64> {
            Some(ms(r.latency()?) - r.done.as_ref()?.latency_ms - ms(r.admit()?))
        };
        self.push("http.stream_lag_ms", "ms", med(&lag), String::new());
        let ok = traced.records.iter().filter(|r| r.ok());
        let (bytes, steps) = ok.fold((0u64, 0u64), |(b, s), r| (b + r.body_bytes, s + r.steps));
        self.push(
            "http.bytes_per_step",
            "B/step",
            bytes as f64 / steps.max(1) as f64,
            String::new(),
        );
        let shed = [untraced, traced]
            .iter()
            .flat_map(|p| &p.records)
            .filter(|r| r.shed())
            .count();
        self.push("http.shed", "count", shed as f64, String::new());
        self.push(
            "http.wire.parse_us",
            "us",
            oob.wire_parse_us,
            "out of band".into(),
        );
        self.push(
            "http.admission.check_us",
            "us",
            oob.admission_check_us,
            "out of band".into(),
        );
        self.push(
            "jobspec.parse_us",
            "us",
            oob.jobspec_parse_us,
            "out of band".into(),
        );

        let (v, n) = pct(&done(|d| d.queue_wait_ms), 0.5);
        self.push("service.queue_wait_ms_p50", "ms", v, n);
        let (v, n) = pct(&done(|d| d.queue_wait_ms), 0.99);
        self.push("service.queue_wait_ms_p99", "ms", v, n);
        let (v, n) = pct(&done(|d| d.exec_ms), 0.5);
        self.push("service.exec_ms_p50", "ms", v, n);
        let (v, n) = pct(&done(|d| d.exec_ms), 0.99);
        self.push("service.exec_ms_p99", "ms", v, n);
        let stat = |k| {
            traced
                .stats
                .as_deref()
                .and_then(|s| crate::client::num_field(s, k))
        };
        let ticks = stat("ticks").unwrap_or(0.0) / stat("completed_jobs").unwrap_or(1.0).max(1.0);
        self.push("service.ticks_per_job", "count", ticks, "GET /stats".into());

        let spans = log.spans();
        let turns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "engine.advance")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        let (v, n) = pct(&turns, 0.99);
        self.push("service.turn_ms_p99", "ms", v, n);

        let sessions = log.sessions();
        let small: Vec<&SessionTrace> = sessions
            .iter()
            .filter(|s| s.queries == w.latency_shape().queries)
            .collect();
        let per_small =
            |f: fn(&SessionTrace) -> f64| mean(&small.iter().map(|s| f(s)).collect::<Vec<_>>());
        let sum = |f: fn(&SessionTrace) -> u64| sessions.iter().map(f).sum::<u64>() as f64;
        let starts: Vec<f64> = sessions
            .iter()
            .map(|s| s.start_session_ns as f64 / 1e6)
            .collect();
        self.push(
            "engine.start_session_ms",
            "ms",
            median(&starts),
            format!("{} sessions", sessions.len()),
        );
        let self_ms = per_small(|s| (s.advance_ns - s.sink_ns) as f64 / 1e6);
        let sink_ms = per_small(|s| s.sink_ns as f64 / 1e6);
        self.push(
            "engine.advance_self_ms",
            "ms",
            self_ms,
            "per job, sink excluded".into(),
        );
        self.push(
            "engine.advances_per_job",
            "count",
            per_small(|s| s.advances as f64),
            String::new(),
        );
        let engine_s = (sum(|s| s.advance_ns) - sum(|s| s.sink_ns)) / 1e9;
        self.push(
            "engine.steps_per_s",
            "steps/s",
            sum(|s| s.steps) / engine_s,
            String::new(),
        );
        self.push(
            "engine.steps_over_requested",
            "ratio",
            sum(|s| s.steps) / sum(|s| s.requested_steps).max(1.0),
            String::new(),
        );
        let handoffs = sum(|s| s.handoffs.unwrap_or(0));
        self.push(
            "engine.sharded.handoffs_per_step",
            "ratio",
            handoffs / sum(|s| s.steps).max(1.0),
            String::new(),
        );
        let crossing = loaded
            .sharded
            .as_ref()
            .map_or(0.0, |p| p.meta.crossing_rate());
        self.push(
            "engine.sharded.crossing_rate",
            "ratio",
            crossing,
            "file partition".into(),
        );
        self.push(
            "emit.sink_us_per_path",
            "us",
            sum(|s| s.sink_ns) / 1e3 / sum(|s| s.paths).max(1.0),
            String::new(),
        );
        self.push(
            "emit.paths_per_advance",
            "count",
            sum(|s| s.paths) / sum(|s| s.advances).max(1.0),
            String::new(),
        );

        let (parse, paths) = traced.records.iter().fold((0.0, 0u64), |(t, p), r| {
            (t + r.parse.as_secs_f64(), p + r.paths)
        });
        self.push(
            "client.parse_us_per_path",
            "us",
            parse * 1e6 / paths.max(1) as f64,
            String::new(),
        );
        let (v, n) = pct(&self.late_ms.clone(), 0.99);
        self.push("client.generator_late_ms_p99", "ms", v, n);

        let p50 = |p: &Phase| {
            median(
                &sample(p, class)
                    .iter()
                    .filter_map(|r| r.latency())
                    .map(ms)
                    .collect::<Vec<_>>(),
            )
        };
        let (base, with) = (p50(untraced), p50(traced));
        self.push(
            "trace.overhead_pct",
            "%",
            (with - base) / base * 100.0,
            format!("latency p50 {with:.3} ms traced vs {base:.3} ms untraced"),
        );

        // The blocking path, as means so the parts add up to the whole.
        let avg = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> f64 {
            mean(&jobs.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
        };
        let latency = avg(&|r| r.latency().map(ms));
        let late = avg(&|r| Some(ms(r.late)));
        let connect = avg(&|r| Some(r.connect.map_or(0.0, ms)));
        let admit = avg(&|r| r.admit().map(ms));
        let queue = avg(&|r| Some(r.done.as_ref()?.queue_wait_ms));
        let exec = avg(&|r| Some(r.done.as_ref()?.exec_ms));
        let stream = avg(&|r| {
            Some(
                ms(r.latency()?)
                    - r.done.as_ref()?.latency_ms
                    - ms(r.admit()?)
                    - ms(r.late)
                    - r.connect.map_or(0.0, ms),
            )
        });
        let other = exec - self_ms - sink_ms;
        let rows = [
            ("client.generator_late", 0.0, late),
            ("http.connect", connect, 0.0),
            ("http.admit (request written -> status line)", admit, 0.0),
            ("service.queue_wait", 0.0, queue),
            ("engine.advance self", self_ms, 0.0),
            ("emit.sink", sink_ms, 0.0),
            (
                "service.exec other (turns of other jobs, scheduler)",
                0.0,
                other,
            ),
            (
                "http.stream (rest of client latency; < 0: overlaps admit)",
                stream,
                0.0,
            ),
        ];
        let attributed: f64 = rows.iter().map(|(_, s, w)| s + w).sum();
        let unattributed = latency - attributed;
        self.push(
            "trace.unattributed_ms",
            "ms",
            unattributed,
            "mean latency minus the blocking-path parts".into(),
        );
        self.push(
            "failed_frac",
            "ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            format!("{} of {}", self.failed, self.attempted),
        );

        let mut t = format!(
            "blocking path of {} {:?} jobs (means, ms; traced window):\n  {:<56} {:>10} {:>10}\n",
            jobs.len(),
            class,
            "layer",
            "self",
            "wait"
        );
        for (name, s, wt) in rows {
            let _ = writeln!(t, "  {name:<56} {s:>10.3} {wt:>10.3}");
        }
        let _ = writeln!(
            t,
            "    of which, out of band: wire parse {:.3}, jobspec parse {:.3}, admission check {:.3}, query build {:.3}",
            oob.wire_parse_us / 1e3,
            oob.jobspec_parse_us / 1e3,
            oob.admission_check_us / 1e3,
            oob.query_build_ms
        );
        let _ = writeln!(t, "  {:<56} {:>10.3}", "unattributed", unattributed);
        let _ = write!(
            t,
            "  {:<56} {:>10.3}   (p50 {:.3}, untraced p50 {:.3})",
            "end-to-end latency", latency, with, base
        );
        self.lines.push(t);
    }

    /// Write the traced run's spans, one JSON object a line: a header
    /// with the host fingerprint, then `{name, request, parent, start_ns,
    /// end_ns, child_ns}` on the engine log's clock. Engine spans belong
    /// to a `session-N`, client spans to a `job-CLASS-SEQ`.
    pub fn write_trace(
        &self,
        w: &Workload,
        args: &Args,
        traced: &Phase,
        log: &EngineLog,
    ) -> Result<(), String> {
        let dir = std::path::Path::new(DATA_DIR).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.jsonl", w.name, args.seed));
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}}}\n",
            w.name,
            args.seed,
            self.fingerprint.json()
        );
        let mut line =
            |name: &str, request: &str, parent: Option<&str>, start: u64, end: u64, child: u64| {
                let parent = parent.map_or("null".into(), |p| format!("\"{p}\""));
                let _ = writeln!(
                    out,
                    "{{\"name\": \"{name}\", \"request\": \"{request}\", \"parent\": {parent}, \
                 \"start_ns\": {start}, \"end_ns\": {end}, \"child_ns\": {child}}}"
                );
            };
        let spans = log.spans();
        // A session's own span covers the calls recorded for it.
        let mut sessions = std::collections::BTreeMap::new();
        for s in &spans {
            let e = sessions.entry(s.request).or_insert((s.start_ns, s.end_ns));
            *e = (e.0.min(s.start_ns), e.1.max(s.end_ns));
        }
        for (id, (start, end)) in sessions {
            line(
                "engine.session",
                &format!("session-{id}"),
                None,
                start,
                end,
                0,
            );
        }
        for s in &spans {
            let request = format!("session-{}", s.request);
            line(
                s.name,
                &request,
                Some("engine.session"),
                s.start_ns,
                s.end_ns,
                s.child_ns,
            );
        }
        let ns = |t: Instant| t.saturating_duration_since(log.epoch()).as_nanos() as u64;
        for r in &traced.records {
            let request = format!("job-{:?}-{}", r.class, r.seq).to_lowercase();
            let mut job_span = |name: &str, a: Instant, b: Instant| {
                let parent = (name != "client.job").then_some("client.job");
                line(name, &request, parent, ns(a), ns(b), 0);
            };
            if let Some(end) = r.end_at {
                job_span("client.job", r.due, end);
            }
            let sent = r.due + r.late;
            if let Some(c) = r.connect {
                job_span("http.connect", sent, sent + c);
            }
            if let (Some(a), Some(b)) = (r.written, r.head_at) {
                job_span("http.admit", a, b);
            }
            if let (Some(a), Some(b)) = (r.head_at, r.end_at) {
                job_span("http.stream", a, b);
            }
        }
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        Ok(())
    }

    pub fn print(&self) {
        let late = tail(&self.late_ms, 0.99).map_or(0.0, |(_, v)| v);
        let invalid = late > LATE_LIMIT_MS;
        println!(
            "host {} seed={} generator_late_p99_ms={late:.3}{}",
            self.fingerprint.json(),
            self.seed,
            if invalid {
                " INVALID: the open-loop generator fell behind its schedule"
            } else {
                ""
            }
        );
        println!(
            "workload {}: {} jobs attempted, {} failed ({} wrong output), {} paths validated",
            self.workload, self.attempted, self.failed, self.wrong, self.validated_paths
        );
        for l in &self.lines {
            println!("{l}");
        }
        let mut json = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            println!(
                "  {:<34} {:>16.6} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.wrong == 0 && !invalid && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Time the request-path layers the server crosses before a job
/// reaches the engine, each on the workload's own request, out of band
/// (no server running).
pub fn out_of_band(w: &Workload, graph: &Graph, seed: u64) -> OutOfBand {
    use lightrw::http::{wire, Admission};
    let (batch, open) = w.plans(seed, Duration::from_secs(2));
    let plan = match w.latency_class() {
        Class::Small => open.first().or(batch.first()),
        Class::Batch => batch.first(),
    }
    .expect("the workload sends jobs")
    .clone();
    let request = crate::client::job_request(&plan.body, true);
    let each = |reps: usize, f: &mut dyn FnMut()| -> f64 {
        let mut t: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        t.sort_by(f64::total_cmp);
        median(&t)
    };
    let wire_parse_us = each(2000, &mut || {
        std::hint::black_box(wire::read_request(&mut &request[..]).is_ok());
    });
    let job = lightrw::jobspec::parse_job(&plan.body).expect("generated bodies parse");
    let jobspec_parse_us = each(2000, &mut || {
        std::hint::black_box(lightrw::jobspec::parse_job(std::hint::black_box(&plan.body)).is_ok());
    });
    let mut admission = Admission::new(crate::serve_config().admission);
    let cost = job.queries as u64 * job.length as u64;
    let admission_check_us = each(2000, &mut || {
        std::hint::black_box(admission.check(job.tenant, cost, 0, Instant::now()));
    });
    let query_build_ms = each(15, &mut || {
        let mut q = QuerySet::n_queries(graph, job.queries, job.length, job.seed);
        if let Some(p) = &job.program {
            q = q.with_program(p.clone());
        }
        std::hint::black_box(q.len());
    }) / 1e3;
    OutOfBand {
        wire_parse_us,
        admission_check_us,
        jobspec_parse_us,
        query_build_ms,
    }
}
