//! Every workload, at one twentieth of its length, emits every metric it
//! is declared to emit and passes its own correctness checks.

use std::sync::Mutex;

use abcast_benchmark::deploy::{self, Clock};
use abcast_benchmark::gen::SubmitMode;
use abcast_benchmark::repeat::RepeatSpec;
use abcast_benchmark::report::{self, RepeatReport};
use abcast_benchmark::spec::{self, Load, END_TO_END, PER_LAYER};

/// A full repeat measures `run_seconds / repeats` = 3 s.
const TWENTIETH_S: f64 = 3.0 / 20.0;

/// Per-layer metrics that `run` adds beside the repeats (null-actor probe,
/// fsync probe, simulated run, codec timing, traced-vs-untraced share).
const ADDED_BY_THE_PARENT: [&str; 5] = [
    "bench.null_actor_max_rate_msgs_s",
    "storage.fsync_probe_us",
    "trace.overhead_share",
    "types.encode_ns_per_msg",
    "types.decode_ns_per_msg",
];

/// What only `faults` has a source for: crashes, recoveries, a cold restart.
const FAULTS_ONLY: [&str; 5] = [
    "faults.outage_max_ms",
    "faults.catchup_ms",
    "faults.cold_restart_ms",
    "faults.failed_share",
    "storage.reopen_ms",
];

/// Whether a repeat of workload `name` is declared to emit per-layer metric
/// `metric`.  `None`: it may or may not — a window of a twentieth (150 ms)
/// need not contain a checkpoint tick (every 200 ms).
fn declared(name: &str, metric: &str) -> Option<bool> {
    if ADDED_BY_THE_PARENT.contains(&metric)
        || metric.starts_with("sim.")
        || metric == "types.payload_copies_per_msg"
    {
        Some(false)
    } else if FAULTS_ONLY.contains(&metric) {
        Some(name == "faults")
    } else if metric == "core.checkpoint_step_p99_us" {
        // The basic protocol takes no checkpoints.
        (name == "basic_hist").then_some(false)
    } else {
        Some(true)
    }
}

/// One workload at a time.  Each loads three workers, a poller and a
/// generator onto the machine at a real-time rate; seven at once on two
/// cores overload it, and an overloaded `faults` victim cannot log what it
/// was given in the 100 ms the schedule allows before its crash — requests
/// are then lost that the protocol never promised to keep.
static TURN: Mutex<()> = Mutex::new(());

fn traced_repeat(name: &str) -> RepeatReport {
    // A poisoned lock only says another workload's test failed.
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let spec = RepeatSpec {
        workload: spec::workload(name).expect("a declared workload"),
        seed: 42,
        window_s: TWENTIETH_S,
        traced: true,
        mode: SubmitMode::ClientRequest,
        dir: deploy::data_root().join(format!("selftest-{name}-{}", std::process::id())),
    };
    report::repeat_in_process(&spec, Clock::start()).expect("the repeat runs")
}

fn emits_everything(name: &str) -> RepeatReport {
    let report = traced_repeat(name);
    assert!(
        report.violations.is_empty(),
        "{name}: {:?}",
        report.violations
    );
    assert_eq!(
        report.failed, 0,
        "{name}: every request must be delivered everywhere"
    );
    assert!(
        report.attempted > 3 && report.samples > 0,
        "{name}: {report:?}"
    );
    for def in &END_TO_END {
        let value = report
            .e2e
            .iter()
            .find(|(k, _)| k == def.name)
            .map(|(_, v)| *v);
        assert!(
            value.is_some_and(|v| v.is_finite() && v > 0.0),
            "{name}: end-to-end metric {} is {value:?}",
            def.name
        );
    }
    for def in &PER_LAYER {
        let value = report
            .layers
            .iter()
            .find(|(k, _)| k == def.name)
            .map(|(_, v)| *v);
        // A metric with nothing behind it is left out, never reported as 0.
        match declared(name, def.name) {
            Some(true) => assert!(
                value.is_some_and(f64::is_finite),
                "{name}: per-layer metric {} is {value:?}",
                def.name
            ),
            Some(false) => assert_eq!(value, None, "{name}: {} has no source", def.name),
            None => assert!(value.is_none_or(f64::is_finite)),
        }
    }
    // The budget's five lines are a partition of the latency of "the median
    // request", the mean over the 45th to 55th percentile.  On an open loop
    // that mean sits on the traced median — loosely here, where it is taken
    // over a dozen samples, within 1 % on a full-length repeat.  A saturated
    // closed loop's latencies come in two humps (this round or the next
    // gossip tick), and a twentieth of a window can put the gap between them
    // inside that band, so there the sum is only held to be a latency.
    let layer = |key: &str| {
        report
            .layers
            .iter()
            .find(|(k, _)| k == key)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let lines: f64 = ["gen_lag", "queue_wait", "handler", "storage", "idle"]
        .iter()
        .map(|line| layer(&format!("budget.{line}_ms")))
        .sum();
    let (p50, p99) = (layer("trace.latency_p50_ms"), layer("trace.latency_p99_ms"));
    let workload = spec::workload(name).expect("a declared workload");
    let sums = match workload.load {
        Load::Open { .. } => (lines - p50).abs() <= 0.25 * p50,
        Load::Closed { .. } => 0.0 < lines && lines <= p99,
    };
    assert!(
        sums,
        "{name}: the budget sums to {lines} ms; traced median {p50} ms, tail {p99} ms"
    );
    report
}

#[test]
fn steady_emits_every_metric() {
    let _ = emits_everything("steady");
}

#[test]
fn sat_mem_emits_every_metric() {
    let _ = emits_everything("sat_mem");
}

#[test]
fn sat_wal_emits_every_metric() {
    let _ = emits_everything("sat_wal");
}

#[test]
fn big_wal_emits_every_metric() {
    let _ = emits_everything("big_wal");
}

#[test]
fn wan_emits_every_metric() {
    let _ = emits_everything("wan");
}

#[test]
fn basic_hist_emits_every_metric() {
    let _ = emits_everything("basic_hist");
}

#[test]
fn faults_emits_every_metric_and_its_own() {
    let report = emits_everything("faults");
    let layer = |key: &str| {
        report
            .layers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    };
    // None of these can be 0: a recovery, an outage and a restart take time.
    for key in [
        "faults.outage_max_ms",
        "faults.catchup_ms",
        "faults.cold_restart_ms",
        "storage.reopen_ms",
    ] {
        assert!(
            layer(key).is_some_and(|v| v > 0.0),
            "{key} is {:?}",
            layer(key)
        );
    }
    assert_eq!(layer("faults.failed_share"), Some(0.0));
}
