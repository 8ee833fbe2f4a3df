//! Running a workload: three fresh-cluster repeats in child processes,
//! medians with the spread beside them, the generator honesty check, the
//! environment block, and the result in the three forms it is read in
//! (a table for people, a file for `compare`, one line for the driver).

use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::deploy::{self, Clock};
use crate::gen::{self, ClosedPlan, ClosedSignals, SubmitMode, Submitter};
use crate::json::Json;
use crate::repeat::{self, RepeatSpec};
use crate::spec::{
    self, Load, MetricDef, Store, Workload, END_TO_END, PER_LAYER, PROCESSES, REPEATS,
};
use crate::trace::TraceSink;
use crate::{layers, measure, procfs, simrun, stats};

/// A barrier cheaper than this is not a barrier: the WAL directory sits on
/// tmpfs or an overlay that does not sync, and WAL workloads would report
/// a write-ahead discipline that costs nothing.
pub const MIN_FSYNC_US: f64 = 5.0;

/// A child that has not finished after this long is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// What one repeat reported.
#[derive(Clone, Debug, Default)]
pub struct RepeatReport {
    /// Its seed.
    pub seed: u64,
    /// Whether it ran under the tracer.
    pub traced: bool,
    /// End-to-end metrics by name.
    pub e2e: Vec<(String, f64)>,
    /// Per-layer metrics by name (the traced ones only on traced repeats).
    pub layers: Vec<(String, f64)>,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests not delivered everywhere.
    pub failed: u64,
    /// Latency samples in the measured window.
    pub samples: u64,
    /// Correctness violations (empty on a correct repeat).
    pub violations: Vec<String>,
    /// Remarks.
    pub notes: Vec<String>,
}

fn pairs_to_json(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

fn pairs_from_json(json: Option<&Json>) -> Vec<(String, f64)> {
    json.map_or(&[][..], Json::fields)
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect()
}

fn strings_from_json(json: Option<&Json>) -> Vec<String> {
    json.map_or(&[][..], Json::items)
        .iter()
        .filter_map(|s| s.as_str().map(String::from))
        .collect()
}

impl RepeatReport {
    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("samples", self.samples)
            .with("e2e", pairs_to_json(&self.e2e))
            .with("layers", pairs_to_json(&self.layers))
            .with("violations", self.violations.clone())
            .with("notes", self.notes.clone())
    }

    /// From [`RepeatReport::to_json`]'s output.
    pub fn from_json(json: &Json) -> RepeatReport {
        let count = |key| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        RepeatReport {
            seed: count("seed"),
            traced: json.get("traced").and_then(Json::as_bool).unwrap_or(false),
            e2e: pairs_from_json(json.get("e2e")),
            layers: pairs_from_json(json.get("layers")),
            attempted: count("attempted"),
            failed: count("failed"),
            samples: count("samples"),
            violations: strings_from_json(json.get("violations")),
            notes: strings_from_json(json.get("notes")),
        }
    }
}

/// Runs one repeat in this process.  `clock` should have been started
/// when the process was, so that `setup_s` covers process start too.
pub fn repeat_in_process(spec: &RepeatSpec, clock: Clock) -> io::Result<RepeatReport> {
    let sink = spec.traced.then(|| TraceSink::new(PROCESSES, clock));
    let workload = spec.workload;
    let seed = spec.seed;
    let collected = match &sink {
        None => repeat::run(spec, clock, None, &|registry| {
            deploy::start_plain(workload, seed, registry)
        }),
        Some(sink) => repeat::run(spec, clock, Some(sink), &|registry| {
            deploy::start_traced(workload, seed, registry, sink)
        }),
    };
    repeat::clean(&spec.dir);
    let collected = collected?;
    let mut analysis = measure::analyse(&collected);
    let e2e = measure::end_to_end(&collected, &mut analysis);
    let mut layer_values = layers::from_counters(&collected, &analysis);
    if let Some(trace) = &collected.trace {
        layer_values.extend(layers::from_trace(&collected, &analysis, trace));
    }
    let named = |pairs: Vec<(&'static str, f64)>| {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>()
    };
    Ok(RepeatReport {
        seed,
        traced: spec.traced,
        e2e: named(e2e),
        layers: named(layer_values),
        attempted: analysis.attempted,
        failed: analysis.failed,
        samples: analysis.samples.len() as u64,
        violations: analysis.violations,
        notes: analysis.notes,
    })
}

/// Runs one repeat in a child process (this executable, `repeat …`) and
/// parses what it printed.  The child is always waited for, and killed if
/// it overruns [`CHILD_DEADLINE`].
pub fn repeat_in_child(spec: &RepeatSpec) -> Result<RepeatReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("repeat")
        .args(["--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--window", &spec.window_s.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&spec.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a repeat: {e}"))?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                repeat::clean(&spec.dir);
                return Err(format!(
                    "repeat of {} overran {CHILD_DEADLINE:?}",
                    spec.workload.name
                ));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for a repeat failed: {e}"));
            }
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(|e| format!("reading a repeat's output: {e}"))?;
    }
    if !status.success() {
        repeat::clean(&spec.dir);
        return Err(format!(
            "repeat of {} exited with {status}",
            spec.workload.name
        ));
    }
    let line = text.lines().last().unwrap_or("");
    Json::parse(line).map(|json| RepeatReport::from_json(&json))
}

/// Where the run happened; recorded in every result file.
#[derive(Clone, Debug)]
pub struct Environment {
    /// `git rev-parse HEAD` of the repository, or `unknown` outside git.
    pub git_revision: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// File-system type under the WAL directory.
    pub wal_fs: String,
    /// Median µs of a 512-byte append + `sync_data` there (200 rounds).
    pub fsync_probe_us: f64,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Environment {
    /// Probes the environment (about 30 ms, most of it the fsync probe).
    pub fn probe() -> io::Result<Environment> {
        let root = deploy::data_root();
        std::fs::create_dir_all(&root)?;
        let package = Path::new(env!("CARGO_MANIFEST_DIR"));
        Ok(Environment {
            git_revision: command_line("git", &["rev-parse", "HEAD"], package)
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["-V"], package).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            wal_fs: procfs::fs_type(&root),
            fsync_probe_us: procfs::fsync_probe_us(&root, 200)?,
        })
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("git_revision", self.git_revision.as_str())
            .with("rustc", self.rustc.as_str())
            .with("nproc", self.nproc)
            .with("wal_fs", self.wal_fs.as_str())
            .with("fsync_probe_us", self.fsync_probe_us)
            .with("repeats", REPEATS)
    }
}

/// What the generator alone can do: the closed-loop generator against an
/// actor that only counts, on the same runtime.  Returns requests per
/// second through `client_request` → handler with idle workers.
pub fn null_actor_rate(
    seed: u64,
    payload_len: usize,
    clients: usize,
    mode: SubmitMode,
    window: Duration,
) -> io::Result<f64> {
    let runtime = deploy::start_null(seed)?;
    let clock = Clock::start();
    let mut submitter = Submitter::new(&runtime, clock, seed, payload_len, mode);
    let signals = ClosedSignals::default();
    let plan = ClosedPlan {
        clients,
        warmup_msgs: 500,
    };
    let count = |runtime: &crate::deploy::NullRuntime| -> u64 {
        (0..PROCESSES)
            .map(|i| crash_recovery_abcast::ProcessId::new(i as u32))
            .filter_map(|p| {
                runtime.inspect(p, move |a| {
                    deploy::Completions::completions_since(a, p, 0).0
                })
            })
            .sum::<usize>() as u64
    };
    let rate = std::thread::scope(|scope| -> io::Result<f64> {
        let (sub, plan, sig) = (&mut submitter, &plan, &signals);
        let generator = std::thread::Builder::new()
            .name("bench-gen".to_string())
            .spawn_scoped(scope, move || gen::closed_loop(sub, plan, sig))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !signals.warm.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (from, began) = (count(&runtime), Instant::now());
        std::thread::sleep(window);
        let (to, elapsed) = (count(&runtime), began.elapsed());
        signals.stop.store(true, Ordering::SeqCst);
        generator
            .join()
            .map_err(|_| io::Error::other("the generator panicked"))?;
        Ok((to - from) as f64 / elapsed.as_secs_f64())
    })?;
    runtime.shutdown();
    Ok(rate)
}

/// What held a run's throughput where it was.
pub fn bounded_by(
    load: Load,
    lag_p99_ms: f64,
    busy_share: f64,
    null_rate: f64,
    throughput: f64,
) -> &'static str {
    let generator_busy = busy_share >= 0.5;
    match load {
        Load::Open { .. } if generator_busy || lag_p99_ms >= 1.0 => "generator",
        Load::Open { .. } => "offered_load",
        Load::Closed { .. } if generator_busy || null_rate < 5.0 * throughput => "generator",
        Load::Closed { .. } => "saturation",
    }
}

/// One metric over the repeats of a run.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// The metric.
    pub def: &'static MetricDef,
    /// Median of the repeats.
    pub median: f64,
    /// `(max − min) / median` of the repeats.
    pub spread: f64,
    /// The repeats' values, in seed order.
    pub values: Vec<f64>,
}

/// The median of metric `name` in `table` (`NaN` if it is not there).
fn median_of(table: &[Aggregate], name: &str) -> f64 {
    table
        .iter()
        .find(|a| a.def.name == name)
        .map_or(f64::NAN, |a| a.median)
}

fn aggregate(
    defs: &'static [MetricDef],
    repeats: &[&RepeatReport],
    pick: fn(&RepeatReport) -> &[(String, f64)],
) -> Vec<Aggregate> {
    defs.iter()
        .map(|def| {
            let values: Vec<f64> = repeats
                .iter()
                .filter_map(|r| pick(r).iter().find(|(k, _)| k == def.name).map(|(_, v)| *v))
                .collect();
            Aggregate {
                def,
                median: stats::median(&values),
                spread: stats::range_spread(&values),
                values,
            }
        })
        .collect()
}

/// A workload's result.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the first repeat (the others use the next integers).
    pub seed: u64,
    /// Measured seconds over all repeats.
    pub seconds: f64,
    /// Whether this was a tracing run.
    pub trace: bool,
    /// Every repeat, in seed order.
    pub repeats: Vec<RepeatReport>,
    /// End-to-end metrics over the untraced repeats.
    pub e2e: Vec<Aggregate>,
    /// Per-layer metrics (over the traced repeats on a tracing run).
    pub layers: Vec<Aggregate>,
    /// Null-actor rate measured beside this run, msgs/s.
    pub null_rate: f64,
    /// `offered_load`, `saturation` or `generator`.
    pub bounded_by: &'static str,
}

impl WorkloadReport {
    /// Requests submitted over all repeats.
    pub fn attempted(&self) -> u64 {
        self.repeats.iter().map(|r| r.attempted).sum()
    }

    /// Requests not delivered everywhere, over all repeats.
    pub fn failed(&self) -> u64 {
        self.repeats.iter().map(|r| r.failed).sum()
    }

    /// `true` when no repeat found a violation.
    pub fn correct(&self) -> bool {
        self.repeats.iter().all(|r| r.violations.is_empty())
    }

    /// `true` when the run is a measurement of the system: correct, and
    /// not held back by the load generator.  Only such a run may feed
    /// `compare`, `calibrate` or a committed baseline.
    pub fn valid(&self) -> bool {
        self.correct() && self.bounded_by != "generator"
    }

    /// The one line the driver reads: every end-to-end metric on an
    /// ordinary run, every per-layer metric on a tracing run.  The driver
    /// wants a number for every declared name, so a per-layer metric this
    /// workload has no source for reads 0 here — and only here: the table
    /// and the result file leave it out.
    pub fn driver_line(&self) -> String {
        let metrics = if self.trace { &self.layers } else { &self.e2e };
        let fields = metrics
            .iter()
            .map(|a| {
                // A latency of an undelivered request has no JSON spelling;
                // such a run is failing anyway.
                let value = match a.median {
                    m if m.is_finite() => m,
                    _ if a.values.is_empty() => 0.0,
                    _ => 1e12,
                };
                (
                    a.def.name.to_string(),
                    Json::obj().with("value", value).with("unit", a.def.unit),
                )
            })
            .collect();
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted().max(1))
            .with("failed", self.failed())
            .with("metrics", Json::Obj(fields))
            .render()
    }

    /// For result files.
    pub fn to_json(&self) -> Json {
        let table = |aggregates: &[Aggregate]| {
            Json::Obj(
                aggregates
                    .iter()
                    .filter(|a| !a.values.is_empty())
                    .map(|a| {
                        let entry = Json::obj()
                            .with("median", a.median)
                            .with("unit", a.def.unit)
                            .with("better", a.def.better.word())
                            .with("spread", a.spread)
                            .with("values", a.values.clone());
                        (a.def.name.to_string(), entry)
                    })
                    .collect(),
            )
        };
        Json::obj()
            .with("workload", self.workload.name)
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("trace", self.trace)
            .with("correct", self.correct())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("bounded_by", self.bounded_by)
            .with("null_actor_max_rate_msgs_s", self.null_rate)
            .with("end_to_end", table(&self.e2e))
            .with("per_layer", table(&self.layers))
            .with(
                "repeats",
                Json::Arr(self.repeats.iter().map(RepeatReport::to_json).collect()),
            )
    }

    /// The table a person reads.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = self.workload;
        let _ = writeln!(
            out,
            "== {} · seed {} · {} repeats × {:.2} s · bounded by {} ==",
            w.name,
            self.seed,
            self.repeats.len(),
            self.seconds / REPEATS as f64,
            self.bounded_by
        );
        if self.bounded_by == "generator" {
            let _ = writeln!(
                out,
                "   NOT A MEASUREMENT OF THE SYSTEM: the load generator ran late or is the \
                 bottleneck (see bench.*); `compare` refuses this result"
            );
        }
        let samples: Vec<String> = self.repeats.iter().map(|r| r.samples.to_string()).collect();
        let _ = writeln!(
            out,
            "   correct {} · attempted {} · failed {} · latency samples per repeat {}",
            self.correct(),
            self.attempted(),
            self.failed(),
            samples.join("/")
        );
        let rows = |out: &mut String, aggregates: &[Aggregate]| {
            for a in aggregates.iter().filter(|a| !a.values.is_empty()) {
                let _ = writeln!(
                    out,
                    "   {:<36} {:>14.4} {:<7} spread {:>6.1} %",
                    a.def.name,
                    a.median,
                    a.def.unit,
                    a.spread * 100.0
                );
            }
        };
        rows(&mut out, &self.e2e);
        if !self.layers.is_empty() {
            let _ = writeln!(out, "   -- per layer --");
            rows(&mut out, &self.layers);
        }
        if self.trace && median_of(&self.layers, "budget.idle_ms").is_finite() {
            let sum: f64 = ["gen_lag", "queue_wait", "handler", "storage", "idle"]
                .iter()
                .map(|line| median_of(&self.layers, &format!("budget.{line}_ms")))
                .sum();
            let _ = writeln!(
                out,
                "   budget lines sum to {:.4} ms against a traced latency_p50 of {:.4} ms",
                sum,
                median_of(&self.layers, "trace.latency_p50_ms")
            );
        }
        for r in &self.repeats {
            for v in &r.violations {
                let _ = writeln!(out, "   VIOLATION (seed {}): {v}", r.seed);
            }
            for n in &r.notes {
                let _ = writeln!(out, "   note (seed {}): {n}", r.seed);
            }
        }
        out
    }
}

/// Runs `workload`: [`REPEATS`] fresh-cluster repeats in child processes,
/// one after the other, each measuring `seconds / REPEATS`.
///
/// On a tracing run the first repeat is untraced and the others traced:
/// the per-layer metrics are the traced repeats' medians, and the
/// untraced one is what the tracing overhead is measured against.
pub fn run_workload(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Environment,
) -> Result<WorkloadReport, String> {
    if workload.store == Store::Wal && env.fsync_probe_us < MIN_FSYNC_US {
        return Err(format!(
            "refusing to run {}: an append + sync_data costs {:.2} µs on {} ({}), so the WAL's \
             barrier would cost nothing; point the package at a real disk",
            workload.name,
            env.fsync_probe_us,
            deploy::data_root().display(),
            env.wal_fs
        ));
    }
    let window_s = seconds / REPEATS as f64;
    let mut repeats = Vec::with_capacity(REPEATS);
    for i in 0..REPEATS {
        let seed = seed.wrapping_add(i as u64);
        let spec = RepeatSpec {
            workload,
            seed,
            window_s,
            traced: trace && i > 0,
            mode: SubmitMode::ClientRequest,
            dir: deploy::data_root().join(format!(
                "{}-{}-{seed}",
                workload.name,
                std::process::id()
            )),
        };
        repeats.push(repeat_in_child(&spec)?);
    }

    let clients = match workload.load {
        Load::Closed { clients, .. } => clients,
        Load::Open { .. } => 256,
    };
    let null_rate = null_actor_rate(
        seed,
        workload.payload,
        clients,
        SubmitMode::ClientRequest,
        Duration::from_millis(300),
    )
    .map_err(|e| format!("the null-actor probe failed: {e}"))?;

    let untraced: Vec<&RepeatReport> = repeats.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&RepeatReport> = repeats.iter().filter(|r| r.traced).collect();
    let e2e = aggregate(&END_TO_END, &untraced, |r| &r.e2e);
    let mut layer_table = aggregate(&PER_LAYER, if trace { &traced } else { &untraced }, |r| {
        &r.layers
    });

    let mut extra: Vec<(&str, f64)> = vec![
        ("bench.null_actor_max_rate_msgs_s", null_rate),
        ("storage.fsync_probe_us", env.fsync_probe_us),
    ];
    if trace {
        extra.extend(simrun::simulated(simrun::SIM_MESSAGES)?);
        extra.extend(simrun::codec(workload.payload, Duration::from_millis(40)));
        let traced_e2e = aggregate(&END_TO_END, &traced, |r| &r.e2e);
        let throughput = median_of(&e2e, "throughput_msgs_s");
        extra.push((
            "trace.overhead_share",
            (throughput - median_of(&traced_e2e, "throughput_msgs_s")) / throughput,
        ));
    }
    for (name, value) in extra {
        if let Some(slot) = layer_table.iter_mut().find(|a| a.def.name == name) {
            slot.values = vec![value];
            slot.median = value;
        }
    }
    let bounded_by = bounded_by(
        workload.load,
        median_of(&layer_table, "bench.gen_lag_p99_ms"),
        median_of(&layer_table, "bench.gen_busy_share"),
        null_rate,
        median_of(&e2e, "throughput_msgs_s"),
    );
    Ok(WorkloadReport {
        workload,
        seed,
        seconds,
        trace,
        repeats,
        e2e,
        layers: layer_table,
        null_rate,
        bounded_by,
    })
}

/// A result file: the environment and one report per workload.
pub fn result_file(env: &Environment, reports: &[WorkloadReport]) -> Json {
    Json::obj()
        .with("benchmark", "crash_recovery_abcast/benchmark")
        .with("environment", env.to_json())
        .with(
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        )
}

/// One row of `compare`.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// Metric name (`*` for a verdict on the whole workload).
    pub metric: String,
    /// Median in the first file.
    pub a: f64,
    /// Median in the second file.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative:
    /// better), in the metric's own direction.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `ok`, `REGRESSION`, `unresolved` (own spread above the bound) or
    /// `invalid: <why>` (nothing can be concluded from these inputs).
    pub verdict: &'static str,
}

/// Why a workload's entry in a result file cannot be compared, if so.
fn unusable(entry: &Json) -> Option<&'static str> {
    if entry.get("correct").and_then(Json::as_bool) != Some(true) {
        Some("invalid: the run was not correct")
    } else if entry.get("bounded_by").and_then(Json::as_str) == Some("generator") {
        Some("invalid: generator-bound")
    } else {
        None
    }
}

/// Compares two result files: one row per (workload, end-to-end metric).
/// Returns the rows and whether the comparison fails — a row worse by more
/// than its bound, a rise in the share of failed requests, or anything
/// `invalid`: a workload that only one file has, an incorrect or
/// generator-bound run on either side, a metric without a finite value.
/// A workload neither file has is skipped.
pub fn compare(a: &Json, b: &Json) -> (Vec<CompareRow>, bool) {
    let mut rows = Vec::new();
    let mut failed = false;
    let by_name = |file: &Json, name: &str| -> Option<Json> {
        file.get("workloads")?
            .items()
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    for workload in &spec::WORKLOADS {
        let whole = |verdict| CompareRow {
            workload: workload.name.to_string(),
            metric: "*".to_string(),
            a: f64::NAN,
            b: f64::NAN,
            worse_by: f64::NAN,
            bound: 0.0,
            verdict,
        };
        let (wa, wb) = match (by_name(a, workload.name), by_name(b, workload.name)) {
            (None, None) => continue,
            (Some(wa), Some(wb)) => (wa, wb),
            _ => {
                failed = true;
                rows.push(whole("invalid: only one file has this workload"));
                continue;
            }
        };
        if let Some(why) = unusable(&wa).or(unusable(&wb)) {
            failed = true;
            rows.push(whole(why));
            continue;
        }
        let failed_share = |w: &Json| {
            let n = |key| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        if failed_share(&wb) > failed_share(&wa) {
            failed = true;
            rows.push(CompareRow {
                workload: workload.name.to_string(),
                metric: "failed_share".to_string(),
                a: failed_share(&wa),
                b: failed_share(&wb),
                worse_by: f64::INFINITY,
                bound: 0.0,
                verdict: "REGRESSION",
            });
        }
        for def in &END_TO_END {
            let entry =
                |w: &Json, key: &str| w.get("end_to_end")?.get(def.name)?.get(key)?.as_f64();
            let ma = entry(&wa, "median").unwrap_or(f64::NAN);
            let mb = entry(&wb, "median").unwrap_or(f64::NAN);
            let worse_by = match def.better {
                spec::Better::Lower => (mb - ma) / ma.abs(),
                spec::Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = entry(&wa, "spread")
                .unwrap_or(0.0)
                .max(entry(&wb, "spread").unwrap_or(0.0));
            // A missing metric or a zero median leaves nothing to compare:
            // that is not the same as "no worse".
            let verdict = if !worse_by.is_finite() {
                failed = true;
                "invalid: no finite value on both sides"
            } else if spread > def.bound {
                "unresolved"
            } else if worse_by > def.bound {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            rows.push(CompareRow {
                workload: workload.name.to_string(),
                metric: def.name.to_string(),
                a: ma,
                b: mb,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    (rows, failed)
}

/// Renders `compare`'s rows.
pub fn render_compare(rows: &[CompareRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<20} {:>14.4} {:>14.4} {:>8.1} % {:>5.0} %  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    out
}

/// What `calibrate` proposes for one (workload, metric) pair.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Medians of the valid sets.
    pub medians: Vec<f64>,
    /// Quartile distance over the median of `medians`.
    pub quartile_spread: f64,
    /// `(max − min) / median` of `medians`.
    pub range_spread: f64,
    /// The bound in force.
    pub bound: f64,
    /// `keep` or `demote to per-layer`.
    pub proposal: &'static str,
}

/// Turns the sets of a calibration (each a full `run`) into proposals: a
/// metric keeps its bound while the spread of the sets' medians stays
/// within it, and one whose spread exceeds it — bounds stop at 0.25 —
/// cannot gate.  Sets in which a workload was incorrect or generator-bound
/// say nothing about the system's spread and are left out for that workload.
pub fn calibrate(sets: &[Vec<WorkloadReport>]) -> Vec<Calibration> {
    let mut out = Vec::new();
    for workload in &spec::WORKLOADS {
        for def in &END_TO_END {
            let medians: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.iter().find(|r| r.workload.name == workload.name))
                .filter(|r| r.valid())
                .filter_map(|r| r.e2e.iter().find(|a| a.def.name == def.name))
                .map(|a| a.median)
                .collect();
            let quartile_spread = stats::quartile_spread(&medians);
            out.push(Calibration {
                workload: workload.name,
                metric: def.name,
                range_spread: stats::range_spread(&medians),
                quartile_spread,
                medians,
                bound: def.bound,
                proposal: if quartile_spread <= def.bound {
                    "keep"
                } else {
                    "demote to per-layer"
                },
            });
        }
    }
    out
}

/// Renders `calibrate`'s proposals as a table and as JSON.
pub fn render_calibration(rows: &[Calibration]) -> (String, Json) {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<11} {:<20} {:>4} {:>14} {:>10} {:>9} {:>6}  proposal",
        "workload", "metric", "sets", "median", "IQR/med", "range/med", "bound"
    );
    let mut json = Vec::new();
    for r in rows {
        let _ = writeln!(
            text,
            "{:<11} {:<20} {:>4} {:>14.4} {:>8.1} % {:>7.1} % {:>4.0} %  {}",
            r.workload,
            r.metric,
            r.medians.len(),
            stats::median(&r.medians),
            r.quartile_spread * 100.0,
            r.range_spread * 100.0,
            r.bound * 100.0,
            r.proposal
        );
        json.push(
            Json::obj()
                .with("workload", r.workload)
                .with("metric", r.metric)
                .with("medians", r.medians.clone())
                .with("quartile_spread", r.quartile_spread)
                .with("range_spread", r.range_spread)
                .with("bound", r.bound)
                .with("proposal", r.proposal),
        );
    }
    (text, Json::Arr(json))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload's entry of a result file, correct and not
    /// generator-bound, whose metrics all read 100 except `metric`, which
    /// reads `special`.
    fn entry(name: &str, metric: &str, special: f64, spread: f64, failed: u64) -> Json {
        judged(name, true, "offered_load")
            .with("failed", failed)
            .with("end_to_end", table(metric, special, spread))
    }

    fn judged(name: &str, correct: bool, bounded_by: &str) -> Json {
        Json::obj()
            .with("workload", name)
            .with("correct", correct)
            .with("bounded_by", bounded_by)
            .with("attempted", 1000u64)
    }

    fn table(metric: &str, special: f64, spread: f64) -> Json {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|def| {
                    let median = if def.name == metric { special } else { 100.0 };
                    (
                        def.name.to_string(),
                        Json::obj().with("median", median).with("spread", spread),
                    )
                })
                .collect(),
        )
    }

    fn file_of(entries: Vec<Json>) -> Json {
        Json::obj().with("workloads", Json::Arr(entries))
    }

    /// A result file with the one workload `steady`.
    fn file(metric: &str, special: f64, spread: f64, failed: u64) -> Json {
        file_of(vec![entry("steady", metric, special, spread, failed)])
    }

    fn verdict_of(rows: &[CompareRow], metric: &str) -> &'static str {
        rows.iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .expect("a row per metric")
    }

    #[test]
    fn compare_flags_what_got_worse_in_the_metrics_own_direction() {
        let base = file("none", 0.0, 0.02, 0);
        // Lower is better: +30 % latency is a regression, −30 % is not.
        let (rows, failed) = compare(&base, &file("latency_p50_ms", 130.0, 0.02, 0));
        assert!(failed);
        assert_eq!(verdict_of(&rows, "latency_p50_ms"), "REGRESSION");
        assert_eq!(verdict_of(&rows, "latency_p95_ms"), "ok");
        let (_, failed) = compare(&base, &file("latency_p50_ms", 70.0, 0.02, 0));
        assert!(!failed);
        // Higher is better: −30 % throughput is a regression, +30 % is not.
        let (rows, failed) = compare(&base, &file("throughput_msgs_s", 70.0, 0.02, 0));
        assert!(failed);
        assert_eq!(verdict_of(&rows, "throughput_msgs_s"), "REGRESSION");
        let (_, failed) = compare(&base, &file("throughput_msgs_s", 130.0, 0.02, 0));
        assert!(!failed);
        assert_eq!(rows.len(), END_TO_END.len());
    }

    #[test]
    fn compare_calls_a_noisy_row_unresolved_and_a_rise_in_failures_a_regression() {
        let base = file("none", 0.0, 0.02, 0);
        let (rows, failed) = compare(&base, &file("latency_p50_ms", 130.0, 0.4, 0));
        assert!(
            !failed,
            "a difference inside the row's own spread decides nothing"
        );
        assert_eq!(verdict_of(&rows, "latency_p50_ms"), "unresolved");
        let (rows, failed) = compare(&base, &file("none", 0.0, 0.02, 3));
        assert!(failed);
        assert_eq!(verdict_of(&rows, "failed_share"), "REGRESSION");
    }

    #[test]
    fn compare_refuses_a_generator_bound_or_incorrect_run_on_either_side() {
        let base = file("none", 0.0, 0.02, 0);
        let rest = |entry: Json| {
            file_of(vec![entry
                .with("failed", 0u64)
                .with("end_to_end", table("none", 0.0, 0.02))])
        };
        let late = rest(judged("steady", true, "generator"));
        let wrong = rest(judged("steady", false, "offered_load"));
        for (a, b, verdict) in [
            (&base, &late, "invalid: generator-bound"),
            (&late, &base, "invalid: generator-bound"),
            (&base, &wrong, "invalid: the run was not correct"),
            (&wrong, &base, "invalid: the run was not correct"),
        ] {
            let (rows, failed) = compare(a, b);
            assert!(failed, "{verdict}");
            assert_eq!(rows.len(), 1, "no metric row may read ok: {rows:?}");
            assert_eq!(verdict_of(&rows, "*"), verdict);
        }
    }

    #[test]
    fn compare_refuses_a_dropped_workload_and_a_value_it_cannot_compare() {
        let both = |second: &str| {
            file_of(vec![
                entry("steady", "none", 0.0, 0.02, 0),
                entry(second, "none", 0.0, 0.02, 0),
            ])
        };
        // `wan` is in one file only; a workload in neither is not a row.
        let (rows, failed) = compare(&both("wan"), &file("none", 0.0, 0.02, 0));
        assert!(failed);
        let wan: Vec<_> = rows.iter().filter(|r| r.workload == "wan").collect();
        assert_eq!(wan.len(), 1);
        assert_eq!(wan[0].verdict, "invalid: only one file has this workload");
        assert!(rows.iter().all(|r| r.workload != "sat_mem"));
        // A zero median in the first file makes "worse by" 0/0 or x/0.
        for b in [0.0, 5.0] {
            let zero = file("latency_p50_ms", 0.0, 0.02, 0);
            let (rows, failed) = compare(&zero, &file("latency_p50_ms", b, 0.02, 0));
            assert!(failed, "0 against {b}");
            assert_eq!(
                verdict_of(&rows, "latency_p50_ms"),
                "invalid: no finite value on both sides"
            );
        }
    }

    fn report_of(throughput: f64, bounded_by: &'static str) -> WorkloadReport {
        WorkloadReport {
            workload: spec::workload("steady").expect("declared"),
            seed: 1,
            seconds: 9.0,
            trace: false,
            repeats: Vec::new(),
            e2e: vec![Aggregate {
                def: &END_TO_END[0],
                median: throughput,
                spread: 0.0,
                values: vec![throughput],
            }],
            layers: Vec::new(),
            null_rate: 0.0,
            bounded_by,
        }
    }

    fn steady_throughput(sets: &[Vec<WorkloadReport>]) -> Calibration {
        calibrate(sets)
            .into_iter()
            .find(|c| c.workload == "steady" && c.metric == "throughput_msgs_s")
            .expect("a proposal per pair")
    }

    #[test]
    fn calibration_proposes_by_the_observed_spread() {
        let propose = |values: [f64; 5]| {
            let sets: Vec<_> = values
                .iter()
                .map(|v| vec![report_of(*v, "offered_load")])
                .collect();
            steady_throughput(&sets).proposal
        };
        assert_eq!(propose([100.0, 101.0, 99.0, 100.5, 99.5]), "keep");
        assert_eq!(
            propose([100.0, 160.0, 60.0, 150.0, 70.0]),
            "demote to per-layer"
        );
    }

    #[test]
    fn calibration_leaves_out_generator_bound_sets() {
        let sets = vec![
            vec![report_of(100.0, "offered_load")],
            vec![report_of(40.0, "generator")],
            vec![report_of(101.0, "offered_load")],
        ];
        assert_eq!(steady_throughput(&sets).medians, vec![100.0, 101.0]);
    }

    #[test]
    fn a_metric_without_a_source_reads_zero_on_the_driver_line_only() {
        let mut report = report_of(100.0, "offered_load");
        report.trace = true;
        report.layers = vec![Aggregate {
            def: &PER_LAYER[0],
            median: f64::NAN,
            spread: 0.0,
            values: Vec::new(),
        }];
        let line = Json::parse(&report.driver_line()).expect("one JSON object");
        let value = line.get("metrics").and_then(|m| m.get(PER_LAYER[0].name));
        assert_eq!(
            value.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
        let file = report.to_json();
        assert!(file.get("per_layer").is_some_and(|t| t.fields().is_empty()));
        assert!(!report.render_text().contains(PER_LAYER[0].name));
    }
}
