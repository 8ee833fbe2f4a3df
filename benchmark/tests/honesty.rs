//! The generator honesty check: a submitter that waits on the worker for
//! every request must be flagged as the bottleneck, and the one the
//! workloads use must not be.

use std::time::Duration;

use abcast_benchmark::deploy::{self, Clock};
use abcast_benchmark::gen::SubmitMode;
use abcast_benchmark::repeat::RepeatSpec;
use abcast_benchmark::report;
use abcast_benchmark::spec;

fn verdict(mode: SubmitMode) -> &'static str {
    let workload = spec::workload("sat_mem").expect("a declared workload");
    let spec = RepeatSpec {
        workload,
        seed: 9,
        window_s: 0.3,
        traced: false,
        mode,
        dir: deploy::data_root().join(format!("selftest-honesty-{mode:?}-{}", std::process::id())),
    };
    let report = report::repeat_in_process(&spec, Clock::start()).expect("the repeat runs");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let value = |pairs: &[(String, f64)], key: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .expect("a reported metric")
    };
    let null_rate =
        report::null_actor_rate(9, workload.payload, 256, mode, Duration::from_millis(100))
            .expect("the null-actor deployment runs");
    report::bounded_by(
        workload.load,
        value(&report.layers, "bench.gen_lag_p99_ms"),
        value(&report.layers, "bench.gen_busy_share"),
        null_rate,
        value(&report.e2e, "throughput_msgs_s"),
    )
}

#[test]
fn an_invoke_based_submitter_is_flagged_generator_bound() {
    assert_eq!(verdict(SubmitMode::Invoke), "generator");
}

#[test]
fn the_client_request_submitter_saturates_the_system_not_itself() {
    assert_eq!(verdict(SubmitMode::ClientRequest), "saturation");
}

#[test]
fn the_verdict_follows_the_stated_rules() {
    let open = spec::workload("steady").expect("declared").load;
    let closed = spec::workload("sat_mem").expect("declared").load;
    assert_eq!(
        report::bounded_by(open, 0.2, 0.01, 0.0, 1000.0),
        "offered_load"
    );
    assert_eq!(
        report::bounded_by(open, 1.5, 0.01, 0.0, 1000.0),
        "generator"
    );
    assert_eq!(
        report::bounded_by(closed, 0.0, 0.01, 200_000.0, 20_000.0),
        "saturation"
    );
    assert_eq!(
        report::bounded_by(closed, 0.0, 0.01, 60_000.0, 20_000.0),
        "generator"
    );
    assert_eq!(
        report::bounded_by(closed, 0.0, 0.9, 200_000.0, 2_000.0),
        "generator"
    );
}
