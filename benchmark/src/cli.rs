//! The command surface.
//!
//! ```text
//! abcast_benchmark run       [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! abcast_benchmark compare   A.json B.json
//! abcast_benchmark calibrate [--sets K] [--seed N] [--seconds S] [--out FILE]
//! abcast_benchmark manifest      (prints BENCHMARK.json from the names in spec.rs)
//! abcast_benchmark repeat    …   (internal: one repeat, run by `run` in a child process)
//! ```
//!
//! `run` with one workload ends its standard output with the one-line JSON
//! object the driver reads; everything before it is for people.  `--trace 1`
//! makes it a tracing run: the per-layer table, the budget, the simulated
//! run.
//!
//! Exit codes: 0; 1 for a run that could not be made; 2 for a correctness
//! violation (no result line, no result file); 3 from `compare` for a
//! regression or inputs it cannot compare; 64 for no command.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::deploy::Clock;
use crate::gen::SubmitMode;
use crate::json::Json;
use crate::repeat::RepeatSpec;
use crate::report::{self, Environment, WorkloadReport};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Measured seconds per workload unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 9.0;

/// Seed unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: abcast_benchmark <run|compare|calibrate> [options]
  run       [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  compare   A.json B.json
  calibrate [--sets K] [--seed N] [--seconds S] [--out FILE]";

/// Options shared by the subcommands.
#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    sets: Option<usize>,
    // `repeat` only.
    window: Option<f64>,
    dir: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let flag = |text: String, name: &str| match text.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("{name} takes 0 or 1, not {other:?}")),
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.05..=600.0).contains(&s) {
                    return Err(format!("--seconds must be between 0.05 and 600, not {s}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => o.trace = flag(value("--trace")?, "--trace")?,
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--sets" => {
                o.sets = Some(
                    value("--sets")?
                        .parse()
                        .map_err(|e| format!("--sets: {e}"))?,
                )
            }
            "--window" => {
                o.window = Some(
                    value("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--dir" => o.dir = Some(PathBuf::from(value("--dir")?)),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn workloads_of(o: &Options) -> Result<Vec<&'static Workload>, String> {
    match &o.workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => spec::workload(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            )
        }),
    }
}

fn write_out(path: &Option<PathBuf>, json: &Json) -> Result<(), String> {
    match path {
        Some(path) => std::fs::write(path, json.render_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    }
}

/// Runs the selected workloads and prints each table as it completes.
fn run_set(
    o: &Options,
    env: &Environment,
    seed: u64,
    trace: bool,
) -> Result<Vec<WorkloadReport>, String> {
    let seconds = o.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut reports = Vec::new();
    for workload in workloads_of(o)? {
        let report = report::run_workload(workload, seed, seconds, trace, env)?;
        print!("{}", report.render_text());
        reports.push(report);
    }
    Ok(reports)
}

fn cmd_run(o: &Options) -> Result<ExitCode, String> {
    let env = Environment::probe().map_err(|e| format!("probing the environment: {e}"))?;
    println!(
        "environment: git {} · {} · {} cores · WAL on {} · append+sync_data {:.1} µs",
        env.git_revision, env.rustc, env.nproc, env.wal_fs, env.fsync_probe_us
    );
    let reports = run_set(o, &env, o.seed.unwrap_or(DEFAULT_SEED), o.trace)?;
    // A result file and a result line exist for correct runs only.  A
    // generator-bound run is correct — the program's outputs are right, the
    // measurement is not — so it is written, labelled, and `compare`
    // refuses it; exiting non-zero on it would fail the driver whenever the
    // host stalls the generator thread for a millisecond.
    if !reports.iter().all(WorkloadReport::correct) {
        return Ok(ExitCode::from(2));
    }
    write_out(&o.out, &report::result_file(&env, &reports))?;
    if let [only] = reports.as_slice() {
        println!("{}", only.driver_line());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(o: &Options) -> Result<ExitCode, String> {
    let [a, b] = o.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (rows, failed) = report::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err(format!("{a} and {b} have no workload in common"));
    }
    print!("{}", report::render_compare(&rows));
    Ok(if failed {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_calibrate(o: &Options) -> Result<ExitCode, String> {
    let env = Environment::probe().map_err(|e| format!("probing the environment: {e}"))?;
    let sets = o.sets.unwrap_or(5);
    let first = o.seed.unwrap_or(DEFAULT_SEED);
    let mut all = Vec::new();
    for set in 0..sets {
        // Seeds of one set are s, s+1, s+2; the next set starts clear of them.
        let seed = first.wrapping_add(10 * set as u64);
        println!("--- calibration set {} of {sets}, seed {seed} ---", set + 1);
        all.push(run_set(o, &env, seed, false)?);
    }
    let rows = report::calibrate(&all);
    let (text, json) = report::render_calibration(&rows);
    print!("{text}");
    let out = Json::obj()
        .with("environment", env.to_json())
        .with("sets", sets)
        .with("proposals", json);
    write_out(&o.out, &out)?;
    let correct = all.iter().flatten().all(WorkloadReport::correct);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `BENCHMARK.json`, generated from `spec.rs` so the names the driver
/// reads cannot drift from the names the benchmark prints.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.word())
            .with("bound", m.bound)
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.word())
    });
    Json::obj()
        .with("command", command.to_vec())
        .with("paths", vec!["benchmark"])
        .with("run_seconds", DEFAULT_SECONDS)
        .with("workloads", Json::Arr(workloads.collect()))
        .with("end_to_end", Json::Arr(end_to_end.collect()))
        .with("per_layer", Json::Arr(per_layer.collect()))
}

fn cmd_repeat(o: &Options, clock: Clock) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("repeat needs --workload")?;
    let spec = RepeatSpec {
        workload: spec::workload(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: o.seed.ok_or("repeat needs --seed")?,
        window_s: o.window.ok_or("repeat needs --window")?,
        traced: o.trace,
        mode: SubmitMode::ClientRequest,
        dir: o.dir.clone().ok_or("repeat needs --dir")?,
    };
    let report =
        report::repeat_in_process(&spec, clock).map_err(|e| format!("repeat failed: {e}"))?;
    println!("{}", report.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Parses the process's arguments and runs the subcommand.
pub fn main() -> ExitCode {
    // Started first: a repeat's set-up time counts from here.
    let clock = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let outcome = parse(rest).and_then(|o| match command.as_str() {
        "run" => cmd_run(&o),
        "compare" => cmd_compare(&o),
        "calibrate" => cmd_calibrate(&o),
        "repeat" => cmd_repeat(&o, clock),
        "manifest" => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("abcast_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
