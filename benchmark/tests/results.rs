//! The result files committed under `results/` are what later claims are
//! compared against: each `run-*.json` must be a complete, correct set in
//! which no workload was generator-bound, and must compare clean against
//! the baseline.

use std::path::Path;

use abcast_benchmark::json::Json;
use abcast_benchmark::report;
use abcast_benchmark::spec::WORKLOADS;

fn read(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

const SETS: [&str; 3] = ["run-seed1-a.json", "run-seed1-b.json", "run-seed7777.json"];

#[test]
fn every_committed_set_is_complete_correct_and_not_generator_bound() {
    for set in SETS.iter().chain(&["trace-seed1.json"]) {
        let file = read(set);
        let entries = file.get("workloads").map_or(&[][..], Json::items);
        for workload in &WORKLOADS {
            let entry = entries
                .iter()
                .find(|e| e.get("workload").and_then(Json::as_str) == Some(workload.name))
                .unwrap_or_else(|| panic!("{set} has no {}", workload.name));
            assert_eq!(
                entry.get("correct").and_then(Json::as_bool),
                Some(true),
                "{set}: {}",
                workload.name
            );
            assert_eq!(
                entry.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{set}: {}",
                workload.name
            );
            let bounded_by = entry.get("bounded_by").and_then(Json::as_str);
            assert!(
                matches!(bounded_by, Some("offered_load" | "saturation")),
                "{set}: {} is bounded by {bounded_by:?}",
                workload.name
            );
        }
        let probe = file
            .get("environment")
            .and_then(|e| e.get("fsync_probe_us"))
            .and_then(Json::as_f64);
        assert!(
            probe.is_some_and(|us| us >= report::MIN_FSYNC_US),
            "{set}: {probe:?}"
        );
    }
}

#[test]
fn the_committed_sets_agree_with_the_baseline() {
    let baseline = read(SETS[0]);
    for other in &SETS[1..] {
        let (rows, failed) = report::compare(&baseline, &read(other));
        assert!(!failed, "{other}:\n{}", report::render_compare(&rows));
        assert_eq!(
            rows.len(),
            WORKLOADS.len() * abcast_benchmark::spec::END_TO_END.len()
        );
    }
}
